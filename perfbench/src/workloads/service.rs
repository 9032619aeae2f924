//! `dense_hs20` and `clifford_hs64`: hidden-shift OpenQASM jobs submitted
//! to a `JobService` with `BackendChoice::Auto`.
//!
//! `dense_hs20` cycles 8 cached 20-qubit programs that the gate census
//! routes to the dense simulator, so its time is in `quantum`.
//! `clifford_hs64` streams all-distinct 64-qubit Clifford programs through
//! a service that checkpoints every job to its journal, so every job is a
//! cache miss and its time is in `engine`, `quantum::qasm` and
//! `stabilizer`.
//!
//! The untraced `clifford_hs64` run keeps the service's disk cache off.
//! Each disk-cache miss writes one file (create, write, rename); on the
//! 2-vCPU host this benchmark was tuned on, that took from 30 us to 650 us
//! per file within ten minutes, set by the shared disk, so the end-to-end
//! metrics would have measured the host's disk rather than the program. A
//! traced run turns it on, and reports the writes and their time per job.

use super::{layer_medians, ms, timed, Measured, Op, ScratchDir, MIN_OPS};
use crate::check;
use crate::host;
use crate::inputs::{self, CliffordStream, ShiftProgram};
use crate::stats;
use crate::trace::{OpTrace, Tracer};
use qdaflow_engine::{
    resolve_backend, BackendChoice, BatchJob, DiskCache, JobService, JobServiceConfig, JobStatus,
    OracleCache, OracleSpec,
};
use qdaflow_quantum::resource::ResourceCounts;
use qdaflow_quantum::{
    qasm, CumulativeDistribution, ExecConfig, ExecPlan, ExecutionResult, GateCensus, SoaStatevector,
};
use qdaflow_stabilizer::StabilizerTableau;
use qdaflow_telemetry::{global_metrics, Counter};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Dense,
    Clifford,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Dense => "dense_hs20",
            Kind::Clifford => "clifford_hs64",
        }
    }

    fn qubits(self) -> usize {
        match self {
            Kind::Dense => inputs::DENSE_QUBITS,
            Kind::Clifford => inputs::CLIFFORD_QUBITS,
        }
    }

    fn shots(self) -> usize {
        match self {
            Kind::Dense => 256,
            Kind::Clifford => 1024,
        }
    }

    /// Jobs one service instance runs before the loop moves on to a fresh
    /// one. The service keeps every job record and every compiled program
    /// in memory, about 35 KB per distinct 64-qubit job (580 MB after 16 777
    /// jobs in 5 s on a 2-vCPU host). A session is a fixed number of jobs,
    /// not a time, so `peak_rss_mb` is the base plus what one service keeps
    /// for this many jobs: it shows that retention, and whatever an
    /// eviction policy saves, without following throughput.
    fn session_jobs(self) -> usize {
        match self {
            Kind::Dense => usize::MAX / 2,
            Kind::Clifford => 2048,
        }
    }

    /// Programs made for one session before it is timed: the dense
    /// programs, cycled, or one per job of the all-distinct stream.
    fn session_programs(self) -> usize {
        match self {
            Kind::Dense => inputs::DENSE_SHIFTS,
            Kind::Clifford => self.session_jobs(),
        }
    }

    /// Set-up is repeated this many times per run; `setup_s` is the
    /// median. A repeat takes about 0.8 s on `dense_hs20` and 5 ms on
    /// `clifford_hs64`.
    fn setup_repeats(self) -> usize {
        match self {
            Kind::Dense => 5,
            Kind::Clifford => 31,
        }
    }

    /// The service's execution configuration. `dense_hs20` simulates on one
    /// thread per job: on a 2-vCPU VM a parallel sweep waits for the slower
    /// vCPU, which made the p50 of consecutive 10 s runs range over 43%
    /// (55.7 to 79.7 ms) against 9% (80.5 to 88.1 ms) single-threaded.
    fn exec(self) -> ExecConfig {
        match self {
            Kind::Dense => ExecConfig::sequential(),
            Kind::Clifford => ExecConfig::default(),
        }
    }

    fn backend(self) -> BackendChoice {
        match self {
            Kind::Dense => BackendChoice::Dense,
            Kind::Clifford => BackendChoice::Stabilizer,
        }
    }
}

/// Client threads of each closed loop. One: on a 2-vCPU host, two clients
/// and their two busy workers contended for the two vCPUs, and the p50 of
/// `clifford_hs64` spread by about 30% between runs of the same code.
const CLIENTS: usize = 1;

/// Jobs submitted by each set-up's warm-up.
const WARMUP_JOBS: usize = inputs::DENSE_SHIFTS;
/// Job indices of warm-ups and replays start here, apart from timed jobs.
const WARMUP_INDEX: usize = 1 << 40;
const REPLAY_INDEX: usize = 1 << 41;
/// Bounds on the replayed operations of a traced run.
const REPLAY_MIN_OPS: usize = 20;
const REPLAY_MAX_OPS: usize = 2000;

/// The jobs of one workload, all made from the seed.
struct Source {
    kind: Kind,
    seed: u64,
    dense: Vec<ShiftProgram>,
    stream: CliffordStream,
}

impl Source {
    fn new(kind: Kind, seed: u64) -> Self {
        Source {
            kind,
            seed,
            dense: inputs::dense_programs(seed),
            stream: CliffordStream::new(seed),
        }
    }

    /// The program of job `index`: the dense programs cycled, or the next
    /// program of the all-distinct Clifford stream.
    fn program(&mut self, index: usize) -> ShiftProgram {
        match self.kind {
            Kind::Dense => self.dense[index % self.dense.len()].clone(),
            Kind::Clifford => self.stream.next_program(),
        }
    }

    /// The `BatchJob` submitting `program` as job `index`.
    fn job(&self, program: &ShiftProgram, index: usize) -> BatchJob {
        BatchJob::new(
            OracleSpec::qasm(program.source.clone()),
            self.kind.shots(),
            inputs::job_seed(self.seed, index),
        )
        .with_backend(BackendChoice::Auto)
    }

    fn check(
        &self,
        program: &ShiftProgram,
        outcome: &Result<ExecutionResult, String>,
    ) -> Result<(), String> {
        let result = outcome.as_ref().map_err(Clone::clone)?;
        check::hidden_shift(result, program.shift, self.kind.qubits(), self.kind.shots())
    }
}

/// Submits one job and waits for its terminal status.
fn execute(service: &JobService, job: BatchJob) -> (f64, Result<ExecutionResult, String>) {
    let started = Instant::now();
    let outcome = match service.submit(job) {
        Err(error) => Err(error.to_string()),
        Ok(id) => match service.wait(id) {
            Some(JobStatus::Done(result)) => Ok(result),
            Some(JobStatus::Dead { attempts, error }) => {
                Err(format!("dead after {attempts} attempts: {error}"))
            }
            other => Err(format!("unexpected status {other:?}")),
        },
    };
    (ms(started.elapsed()), outcome)
}

/// A running service and the scratch directory of its journal and disk
/// cache.
struct Running {
    service: JobService,
    _dir: Option<ScratchDir>,
}

/// `clifford_hs64` journals every job, and with `disk` also writes every
/// compiled program to a disk cache.
fn open_service(kind: Kind, label: &str, disk: bool) -> Result<Running, String> {
    let dir = match kind {
        Kind::Dense => None,
        Kind::Clifford => Some(ScratchDir::new(label)?),
    };
    let config = JobServiceConfig {
        exec: kind.exec(),
        journal_path: dir.as_ref().map(|d| d.path().join("journal")),
        disk_cache_dir: dir
            .as_ref()
            .filter(|_| disk)
            .map(|d| d.path().join("cache")),
        ..JobServiceConfig::default()
    };
    let service = JobService::new(config).map_err(|e| e.to_string())?;
    Ok(Running { service, _dir: dir })
}

/// Constructs the service and runs the warm-up: the program's own set-up
/// before the first timed job. Returns the warm-up's check failures.
fn set_up(
    source: &mut Source,
    repeat: usize,
    disk: bool,
    setup_s: &mut Vec<f64>,
) -> Result<(Running, usize), String> {
    let warmup: Vec<(ShiftProgram, BatchJob)> = (0..WARMUP_JOBS)
        .map(|i| {
            let index = WARMUP_INDEX + repeat * WARMUP_JOBS + i;
            let program = source.program(index);
            let job = source.job(&program, index);
            (program, job)
        })
        .collect();
    let source = &*source;
    let (running, outcomes) = timed(setup_s, || {
        let running = open_service(source.kind, &format!("setup{repeat}"), disk)?;
        let outcomes: Vec<_> = warmup
            .iter()
            .map(|(_, job)| execute(&running.service, job.clone()).1)
            .collect();
        Ok::<_, String>((running, outcomes))
    })?;
    let failed = warmup
        .iter()
        .zip(&outcomes)
        .filter(|((program, _), outcome)| source.check(program, outcome).is_err())
        .count();
    Ok((running, failed))
}

/// A timed job's latency and the verdict of its check.
type Timed = (f64, Result<(), String>);

/// The closed loop of one session: each client submits its next job when
/// the previous one returned, until `budget` has passed and at least
/// [`MIN_OPS`] ran in the run, or until the session has run
/// [`Kind::session_jobs`]. Job `first + i` runs `programs[i]`, cycled;
/// the programs are made before the loop, so clients only take them.
/// Each result is checked after its latency is taken; only the verdict is
/// kept.
fn closed_loop(
    source: &Source,
    programs: &[ShiftProgram],
    service: &JobService,
    budget: Duration,
    first: usize,
) -> (Vec<Timed>, f64) {
    let next = AtomicUsize::new(first);
    let end = first.saturating_add(source.kind.session_jobs());
    let started = Instant::now();
    let deadline = started + budget;
    let done = thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= end || (index >= MIN_OPS && Instant::now() >= deadline) {
                            return local;
                        }
                        let program = &programs[(index - first) % programs.len()];
                        let (latency, outcome) = execute(service, source.job(program, index));
                        local.push((latency, source.check(program, &outcome)));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    (done, started.elapsed().as_secs_f64())
}

/// Counters the engine keeps, read before and after each session.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    /// Wall time the service's workers measured around `run_job`.
    worker_s: f64,
    worker_jobs: u64,
    hits: u64,
    misses: u64,
    disk_writes: u64,
    dense: u64,
    sparse: u64,
    stabilizer: u64,
    retried: u64,
    dead: u64,
}

impl Counts {
    fn read(service: &JobService) -> Counts {
        let cache = service.engine().cache().stats();
        let text = service.metrics_text();
        let total = |name: &str| {
            text.lines()
                .find_map(|line| line.strip_prefix(name)?.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Counts {
            worker_s: total("qdaflow_job_duration_seconds_sum "),
            worker_jobs: total("qdaflow_job_duration_seconds_count ") as u64,
            hits: cache.hits,
            misses: cache.misses,
            disk_writes: service.engine().cache().disk_stats().writes,
            dense: dispatch_counter("dense").get(),
            sparse: dispatch_counter("sparse").get(),
            stabilizer: dispatch_counter("stabilizer").get(),
            retried: total("qdaflow_jobs_retried_total ") as u64,
            dead: total("qdaflow_jobs_dead_total ") as u64,
        }
    }

    /// Adds what happened between `before` and `after`.
    fn add_delta(&mut self, before: Counts, after: Counts) {
        self.worker_s += after.worker_s - before.worker_s;
        self.worker_jobs += after.worker_jobs - before.worker_jobs;
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.disk_writes += after.disk_writes - before.disk_writes;
        self.dense += after.dense - before.dense;
        self.sparse += after.sparse - before.sparse;
        self.stabilizer += after.stabilizer - before.stabilizer;
        self.retried += after.retried - before.retried;
        self.dead += after.dead - before.dead;
    }
}

fn dispatch_counter(backend: &str) -> Counter {
    global_metrics().counter(
        "qdaflow_dispatch_total",
        "Backend dispatch decisions, labelled by the chosen backend.",
        &[("backend", backend)],
    )
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Measured, String> {
    let mut source = Source::new(kind, seed);
    let mut measured = Measured {
        clients: CLIENTS,
        ..Measured::default()
    };
    // A traced run also writes every compiled program to a disk cache.
    let disk = trace && kind == Kind::Clifford;
    let mut warmup_failed = 0;
    let mut running = None;
    for repeat in 0..kind.setup_repeats() {
        // Drop the previous service before the next set-up is timed.
        drop(running.take());
        let (service, failed) = set_up(&mut source, repeat, disk, &mut measured.setup_s)?;
        warmup_failed += failed;
        running = Some(service);
    }
    measured.checks.push(format!(
        "warm-up: {} of {} jobs returned their planted shift",
        kind.setup_repeats() * WARMUP_JOBS - warmup_failed,
        kind.setup_repeats() * WARMUP_JOBS
    ));

    // A traced run splits its time between the untraced loop, whose
    // latency the replay is compared against, and the replay itself.
    let loop_seconds = if trace { seconds / 2.0 } else { seconds };
    let mut done = Vec::new();
    let mut counts = Counts::default();
    let mut restart_ms = Vec::new();
    let mut retained_kb_per_job = None;
    for session in 0.. {
        if measured.timed_s >= loop_seconds && done.len() >= MIN_OPS {
            break;
        }
        if session > 0 {
            // A fresh service, journal and disk cache, outside the timed
            // region.
            let started = Instant::now();
            drop(running.take());
            running = Some(open_service(kind, &format!("session{session}"), disk)?);
            restart_ms.push(ms(started.elapsed()));
        }
        let first = done.len();
        let programs: Vec<ShiftProgram> = (first..first + kind.session_programs())
            .map(|index| source.program(index))
            .collect();
        let service = &running.as_ref().expect("a service is running").service;
        let before = Counts::read(service);
        let rss_before = host::rss_mb();
        let budget = Duration::from_secs_f64((loop_seconds - measured.timed_s).max(0.0));
        let (batch, timed_s) = closed_loop(&source, &programs, service, budget, first);
        if let (Kind::Clifford, 0, Some(before), Some(after)) =
            (kind, session, rss_before, host::rss_mb())
        {
            // What the first service still holds per job it ran. Only
            // `clifford_hs64` reports it: on `dense_hs20` the allocator's
            // cached 16 MB state buffers would swamp it.
            retained_kb_per_job = Some((after - before) * 1024.0 / batch.len().max(1) as f64);
        }
        counts.add_delta(before, Counts::read(service));
        done.extend(batch);
        measured.timed_s += timed_s;
    }
    let mut first_failures = Vec::new();
    for (latency, verdict) in done {
        if let Err(reason) = &verdict {
            if first_failures.len() < 3 {
                first_failures.push(reason.clone());
            }
        }
        measured.ops.push(Op {
            ms: latency,
            verified: verdict.is_ok(),
        });
    }
    let ops = measured.ops.len();
    measured.checks.push(format!(
        "{}: {} of {ops} jobs returned their planted {}-bit shift in all {} shots ({} client)",
        kind.name(),
        ops - measured.failed(),
        kind.qubits(),
        kind.shots(),
        CLIENTS
    ));
    for reason in first_failures {
        measured.checks.push(format!("  failed: {reason}"));
    }
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    measured.checks.push(format!(
        "routing per job: dense {:.3}, sparse {:.3}, stabilizer {:.3}",
        per_op(counts.dense),
        per_op(counts.sparse),
        per_op(counts.stabilizer)
    ));
    if !trace {
        return Ok(measured);
    }

    let layers = &mut measured.layers;
    let lookups = counts.hits + counts.misses;
    layers.insert(
        "engine.cache.hit_ratio",
        counts.hits as f64 / lookups.max(1) as f64,
    );
    layers.insert("engine.cache.disk_writes", per_op(counts.disk_writes));
    layers.insert("engine.dispatch.dense", per_op(counts.dense));
    layers.insert("engine.dispatch.sparse", per_op(counts.sparse));
    layers.insert("engine.dispatch.stabilizer", per_op(counts.stabilizer));
    layers.insert("engine.service.retried", counts.retried as f64);
    layers.insert("engine.service.dead", counts.dead as f64);
    if let Some(kb) = retained_kb_per_job {
        layers.insert("engine.service.retained_kb_per_job", kb);
    }
    if let Some(restart) = stats::median(&restart_ms) {
        layers.insert("engine.service.restart_ms", restart);
    }
    // Queue, locks, hand-off to and from the worker, journal: mean latency
    // minus the mean time the workers measured around `run_job`.
    let mean_latency_ms = measured.ops.iter().map(|op| op.ms).sum::<f64>() / ops.max(1) as f64;
    layers.insert(
        "engine.service.queue_us",
        mean_latency_ms * 1e3 - counts.worker_s * 1e6 / counts.worker_jobs.max(1) as f64,
    );

    // The replay runs on a thread of its own, as jobs run on a service
    // worker thread rather than on the main thread: the allocator serves
    // the 16 MB state vectors differently there.
    let service = &running.as_ref().expect("a service is running").service;
    let replay = thread::scope(|scope| {
        scope
            .spawn(|| replay(&mut source, service, seconds / 2.0))
            .join()
            .expect("replay thread panicked")
    })?;
    measured.checks.push(format!(
        "replay: {} of {} replayed and interleaved service jobs returned their planted shift",
        3 * replay.traced.len() - replay.failed,
        3 * replay.traced.len()
    ));
    let layers = &mut measured.layers;
    layer_medians(
        kind.name(),
        &replay.traced,
        &replay.untraced_wall_ns,
        layers,
    );
    if let (Some(service_ms), Some(replay_ns)) = (
        stats::median(&replay.service_ms),
        stats::median(&replay.untraced_wall_ns),
    ) {
        layers.insert(
            "engine.service.overhead_us",
            service_ms * 1e3 - replay_ns * 1e-3,
        );
    }
    if let Some(records) = replay.layers.records {
        layers.insert("quantum.plan.records", records as f64);
    }
    if let Some(bytes) = stats::median(&replay.layers.bytes_moved) {
        layers.insert("quantum.plan.bytes_moved_computed", bytes);
    }
    Ok(measured)
}

struct Replay {
    traced: Vec<OpTrace>,
    untraced_wall_ns: Vec<f64>,
    /// Latency of the service jobs interleaved with the replay, so that
    /// both are measured under the same host load.
    service_ms: Vec<f64>,
    failed: usize,
    layers: Layers,
}

/// Replays jobs as the sequence of public layer calls a service worker
/// makes for them (`BatchEngine::run_job` with `Auto`). Each round submits
/// one job to the service, then replays an untraced and a traced job.
fn replay(source: &mut Source, service: &JobService, seconds: f64) -> Result<Replay, String> {
    let mut out = Replay {
        traced: Vec::new(),
        untraced_wall_ns: Vec::new(),
        service_ms: Vec::new(),
        failed: 0,
        layers: Layers::new(source)?,
    };
    let started = Instant::now();
    let mut index = REPLAY_INDEX;
    while out.traced.len() < REPLAY_MAX_OPS
        && (out.traced.len() < REPLAY_MIN_OPS || started.elapsed().as_secs_f64() < seconds)
    {
        let program = source.program(index);
        let job = source.job(&program, index);
        index += 1;
        let (latency, outcome) = execute(service, job);
        out.service_ms.push(latency);
        if source.check(&program, &outcome).is_err() {
            out.failed += 1;
        }
        for enabled in [false, true] {
            let program = source.program(index);
            let job = source.job(&program, index);
            index += 1;
            let mut tracer = Tracer::start(enabled);
            let outcome = out.layers.job(&job, &mut tracer);
            let op = tracer.finish();
            if source.check(&program, &outcome).is_err() {
                out.failed += 1;
            }
            if enabled {
                out.traced.push(op);
            } else {
                out.untraced_wall_ns.push(op.wall_ns as f64);
            }
        }
    }
    Ok(out)
}

/// The layers a service worker calls into, set up as the service has them.
struct Layers {
    kind: Kind,
    config: ExecConfig,
    cache: OracleCache,
    /// For `clifford_hs64`, the disk cache a traced run's service writes to.
    disk: Option<(DiskCache, ScratchDir)>,
    amps_touched: Counter,
    records: Option<usize>,
    bytes_moved: Vec<f64>,
}

impl Layers {
    /// The layers as a service worker finds them: the service's execution
    /// configuration, for `dense_hs20` a cache holding every program, and
    /// for `clifford_hs64` an empty disk cache.
    fn new(source: &Source) -> Result<Self, String> {
        let config = source.kind.exec();
        if !config.plan {
            return Err("the replay follows the ExecPlan path, which the config must use".into());
        }
        let cache = OracleCache::new();
        if source.kind == Kind::Dense {
            for program in &source.dense {
                cache
                    .get_or_compile(&OracleSpec::qasm(program.source.clone()))
                    .map_err(|e| e.to_string())?;
            }
        }
        let disk = match source.kind {
            Kind::Dense => None,
            Kind::Clifford => {
                let dir = ScratchDir::new("replay")?;
                let disk = DiskCache::open(dir.path().join("cache")).map_err(|e| e.to_string())?;
                Some((disk, dir))
            }
        };
        Ok(Layers {
            kind: source.kind,
            config,
            cache,
            disk,
            amps_touched: global_metrics().counter(
                "qdaflow_kernel_amps_touched_total",
                "Amplitudes visited by interpreter sweeps (register size times segment sweeps).",
                &[],
            ),
            records: None,
            bytes_moved: Vec::new(),
        })
    }

    fn job(&mut self, job: &BatchJob, t: &mut Tracer) -> Result<ExecutionResult, String> {
        match self.kind {
            Kind::Dense => self.dense_job(job, t),
            Kind::Clifford => self.clifford_job(job, t),
        }
    }

    /// A cached dense job: two cache lookups (backend resolution, then
    /// execution), census and routing, then `Statevector::run`'s plan path
    /// and `sample_counts_sharded`, one public call per span.
    fn dense_job(&mut self, job: &BatchJob, t: &mut Tracer) -> Result<ExecutionResult, String> {
        let config = self.config;
        let program = t
            .span("engine.cache.hit_us", || {
                self.cache.get_or_compile(&job.spec)
            })
            .map_err(|e| e.to_string())?;
        let circuit = program.circuit();
        let backend = t.span("engine.dispatch.resolve_us", || {
            resolve_backend(&GateCensus::of(circuit))
        });
        if backend != self.kind.backend() {
            return Err(format!("routed to {backend}"));
        }
        t.span("engine.cache.hit_us", || {
            self.cache.get_or_compile(&job.spec)
        })
        .map_err(|e| e.to_string())?;
        let plan = t.span("quantum.plan.compile_us", || {
            ExecPlan::compile(circuit, &config)
        });
        let mut state = t.span("quantum.plan.alloc_ms", || {
            SoaStatevector::zero_state(circuit.num_qubits(), plan.block_bits())
        });
        let touched = self.amps_touched.get();
        t.span("quantum.plan.sweep_ms", || {
            plan.apply_soa(&mut state, &config)
        });
        // Computed, not measured: each amplitude a sweep visits is loaded
        // and stored once, as two f64 parts.
        self.bytes_moved
            .push(((self.amps_touched.get() - touched) * 2 * 2 * 8) as f64);
        self.records = Some(plan.num_records());
        let amplitudes = t.span("quantum.statevector.handoff_ms", || {
            let amplitudes = state.to_amplitudes();
            drop(state);
            amplitudes
        });
        let cdf = t.span("quantum.sampling.cdf_ms", || {
            CumulativeDistribution::from_amplitudes(&amplitudes)
        });
        let histogram = t.span("quantum.sampling.draw_us", || {
            cdf.sample_sharded(job.seed, job.shots, config.threads, config.shot_shard_size)
        });
        let result = t.span("quantum.result.build_us", || {
            ExecutionResult::from_histogram(circuit, job.shots, &histogram)
        });
        t.span("quantum.statevector.teardown_ms", || {
            drop((amplitudes, cdf, histogram))
        });
        Ok(result)
    }

    /// A distinct Clifford job: a cache miss (key, memory and disk lookup,
    /// OpenQASM import, resource counts, the copy aliased into the
    /// backend-tagged slot), the disk-cache write, census and routing, then
    /// the stabilizer tableau, its sampler and the sharded draw. The cache's
    /// map insert is crate-private and stays in `engine.service.overhead_us`.
    fn clifford_job(&mut self, job: &BatchJob, t: &mut Tracer) -> Result<ExecutionResult, String> {
        let OracleSpec::Qasm { source } = &job.spec else {
            return Err("hidden-shift jobs are OpenQASM".to_owned());
        };
        let key = t.span("engine.cache.miss_us", || job.spec.cache_key());
        let disk = self.disk.as_ref().map(|(disk, _)| disk);
        let cached = t.span("engine.cache.miss_us", || {
            self.cache.peek(key).is_some() || disk.is_some_and(|d| d.load(key).is_some())
        });
        if cached {
            return Err("a distinct job hit the cache".to_owned());
        }
        let circuit = t
            .span("quantum.qasm.parse_us", || qasm::from_qasm(source))
            .map_err(|e| e.to_string())?;
        t.span("engine.cache.miss_us", || {
            black_box(ResourceCounts::of(&circuit))
        });
        if let Some(disk) = disk {
            t.span("engine.cache.disk_write_us", || {
                disk.store(key, &circuit, Duration::ZERO)
            });
        }
        let backend = t.span("engine.dispatch.resolve_us", || {
            resolve_backend(&GateCensus::of(&circuit))
        });
        if backend != self.kind.backend() {
            return Err(format!("routed to {backend}"));
        }
        t.span("engine.cache.miss_us", || drop(black_box(circuit.clone())));
        let tableau = t
            .span("stabilizer.tableau.build_us", || {
                StabilizerTableau::from_circuit(&circuit)
            })
            .map_err(|e| e.to_string())?;
        let sampler = t
            .span("stabilizer.sampler.build_us", || tableau.sampler())
            .map_err(|e| e.to_string())?;
        let config = self.config;
        let counts = t.span("stabilizer.sampling.draw_us", || {
            sampler.sample_counts_sharded(job.seed, job.shots, &config)
        });
        Ok(t.span("quantum.result.build_us", || {
            ExecutionResult::from_counts(&circuit, job.shots, counts)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay_one(kind: Kind, expected_layers: &[&str]) {
        let mut source = Source::new(kind, 9);
        let mut layers = Layers::new(&source).unwrap();
        for index in 0..3 {
            let program = source.program(index);
            let job = source.job(&program, index);
            let mut tracer = Tracer::start(true);
            let outcome = layers.job(&job, &mut tracer);
            let op = tracer.finish();
            source.check(&program, &outcome).unwrap();
            assert_eq!(
                op.self_ns.values().sum::<u64>() + op.unattributed_ns,
                op.wall_ns
            );
            let names: Vec<&str> = op.self_ns.keys().copied().collect();
            assert_eq!(names, expected_layers);
        }
    }

    #[test]
    fn a_replayed_dense_job_is_correct_and_its_layers_add_up() {
        replay_one(
            Kind::Dense,
            &[
                "engine.cache.hit_us",
                "engine.dispatch.resolve_us",
                "quantum.plan.alloc_ms",
                "quantum.plan.compile_us",
                "quantum.plan.sweep_ms",
                "quantum.result.build_us",
                "quantum.sampling.cdf_ms",
                "quantum.sampling.draw_us",
                "quantum.statevector.handoff_ms",
                "quantum.statevector.teardown_ms",
            ],
        );
    }

    #[test]
    fn a_replayed_clifford_job_is_correct_and_its_layers_add_up() {
        replay_one(
            Kind::Clifford,
            &[
                "engine.cache.disk_write_us",
                "engine.cache.miss_us",
                "engine.dispatch.resolve_us",
                "quantum.qasm.parse_us",
                "quantum.result.build_us",
                "stabilizer.sampler.build_us",
                "stabilizer.sampling.draw_us",
                "stabilizer.tableau.build_us",
            ],
        );
    }

    #[test]
    fn the_service_returns_the_planted_shift_through_auto_routing() {
        for kind in [Kind::Dense, Kind::Clifford] {
            let mut source = Source::new(kind, 4);
            let running = open_service(kind, &format!("test-{}", kind.name()), true).unwrap();
            for index in 0..2 {
                let program = source.program(index);
                let job = source.job(&program, index);
                let (_, outcome) = execute(&running.service, job);
                source.check(&program, &outcome).unwrap();
            }
        }
    }
}
