//! The long-running batch job service: submission, polling, crash-safe
//! workers, retry with exponential backoff, a dead-letter bucket,
//! checkpoint/resume, and Prometheus metrics.
//!
//! [`BatchEngine::run_batch`] is a one-shot synchronous call that lives and
//! dies with its caller. [`JobService`] turns the same execution machinery
//! into a persistent service — the serving layer the paper's
//! compile-once-run-many oracle workloads want:
//!
//! * **Submission API** — [`JobService::submit`] enqueues a [`BatchJob`]
//!   and returns a [`JobId`]; [`JobService::poll`] reports its
//!   [`JobStatus`] (`Queued` → `Running` → `Done` / `Failed` / `Dead`);
//!   [`JobService::wait`] blocks until a terminal state;
//!   [`JobService::cancel`] withdraws a job that has not started.
//! * **Crash-safe workers** — every job runs under `catch_unwind`; a
//!   panicking compilation becomes a typed
//!   [`EngineError::JobPanicked`] for *that job only*. One bad job never
//!   takes down its siblings or a worker thread.
//! * **Retry / dead-letter** — panicked jobs are retried with exponential
//!   backoff up to [`JobServiceConfig::max_attempts`]; deterministic
//!   failures (typed compile/validation errors) and exhausted retries land
//!   in the dead-letter bucket ([`JobStatus::Dead`],
//!   [`JobService::dead_letters`]).
//! * **Durability** — an optional [`DiskCache`] persists compilations
//!   across restarts (shared by every process pointing at the directory),
//!   and an optional [`Journal`] checkpoints each completed job so a killed
//!   batch resumes from its last completed job: resubmitting a journaled
//!   job answers instantly from the checkpoint, recompiling nothing.
//! * **Observability** — [`JobService::metrics_text`] exports counters and
//!   a job-latency histogram in Prometheus text exposition format.
//!
//! Duplicate submissions are **single-flighted**: while one worker
//! compiles a spec, other workers skip past jobs with the same cache key
//! instead of compiling it redundantly; when the first finishes, the
//! duplicates replay from the warm cache. This also makes the cache's
//! compile counters deterministic under any worker count.
//!
//! ```
//! use qdaflow_engine::{JobService, JobServiceConfig, JobStatus, OracleSpec, BatchJob, SynthesisChoice};
//! use qdaflow_boolfn::Permutation;
//!
//! # fn main() -> Result<(), qdaflow_engine::EngineError> {
//! let service = JobService::new(JobServiceConfig::default())?;
//! let spec = OracleSpec::permutation(
//!     Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap(),
//!     SynthesisChoice::default(),
//! );
//! let id = service.submit(BatchJob::new(spec, 256, 7))?;
//! match service.wait(id) {
//!     Some(JobStatus::Done(result)) => assert_eq!(result.shots, 256),
//!     other => panic!("unexpected terminal status {other:?}"),
//! }
//! assert!(service.metrics_text().contains("qdaflow_jobs_completed_total 1"));
//! # Ok(())
//! # }
//! ```

use crate::batch::{catch_job_panic, BatchEngine, BatchJob};
use crate::store::disk::DiskCache;
use crate::store::journal::{Journal, JournalEntry};
use crate::{EngineError, OracleCache};
use qdaflow_pipeline::spec::SpecKey;
use qdaflow_quantum::backend::ExecutionResult;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_telemetry as telemetry;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Handle to a submitted job, unique within its [`JobService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting for a worker (or for its retry backoff to elapse when it
    /// has already failed — see [`JobStatus::Failed`]).
    Queued,
    /// A worker is executing it right now.
    Running,
    /// Completed; carries the result (possibly replayed from a journal —
    /// see [`JobService::metrics_text`]'s `qdaflow_jobs_resumed_total`).
    Done(ExecutionResult),
    /// Failed at least once and is waiting for its exponential-backoff
    /// retry. Only transient failures (caught panics) are retried.
    Failed {
        /// Attempts made so far.
        attempts: u32,
        /// The most recent failure.
        error: EngineError,
    },
    /// In the dead-letter bucket: failed deterministically (typed
    /// compilation/validation errors are never retried), exhausted its
    /// retry budget, or was cancelled. Terminal.
    Dead {
        /// Attempts made before dead-lettering.
        attempts: u32,
        /// The final failure (or [`EngineError::JobCancelled`]).
        error: EngineError,
    },
}

impl JobStatus {
    /// Short lower-case state name (`queued`/`running`/`done`/`failed`/
    /// `dead`) for logs.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done(_) => "done",
            Self::Failed { .. } => "failed",
            Self::Dead { .. } => "dead",
        }
    }

    /// Whether the status is terminal (`Done` or `Dead`).
    pub fn is_terminal(&self) -> bool {
        matches!(self, Self::Done(_) | Self::Dead { .. })
    }
}

/// Construction-time configuration of a [`JobService`].
#[derive(Debug, Clone)]
pub struct JobServiceConfig {
    /// Worker threads executing jobs (at least 1).
    pub workers: usize,
    /// Maximum execution attempts per job (at least 1). Only transient
    /// failures (caught panics) consume retries; deterministic errors
    /// dead-letter immediately.
    pub max_attempts: u32,
    /// Base delay of the exponential retry backoff: attempt `n` waits
    /// `retry_base_delay * 2^(n-1)` before requeueing.
    pub retry_base_delay: Duration,
    /// Execution configuration for compilation/simulation/sampling (part
    /// of the result-reproducibility contract via `shot_shard_size`).
    pub exec: ExecConfig,
    /// Directory of the persistent compiled-oracle cache; `None` keeps the
    /// cache in memory only. Ignored by [`JobService::with_engine`], which
    /// adopts the provided engine's cache instead.
    pub disk_cache_dir: Option<PathBuf>,
    /// Path of the checkpoint journal; `None` disables checkpoint/resume.
    pub journal_path: Option<PathBuf>,
}

impl Default for JobServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_attempts: 3,
            retry_base_delay: Duration::from_millis(25),
            exec: ExecConfig::default(),
            disk_cache_dir: None,
            journal_path: None,
        }
    }
}

/// One queued execution slot (jobs re-enter the queue on retry).
struct QueueEntry {
    id: JobId,
    /// Single-flight key: the job's compilation cache key. While a worker
    /// holds a key, other entries with the same key stay queued.
    key: SpecKey,
    /// Earliest instant the entry may run (backoff for retries).
    ready_at: Instant,
}

struct JobRecord {
    job: BatchJob,
    attempts: u32,
    status: JobStatus,
    /// Span open on the submitting thread at [`JobService::submit`] time
    /// (0 = none): workers parent their execution spans under it, so a
    /// trace links a job's queued→running→done lifecycle across the pool.
    trace_parent: u64,
}

#[derive(Default)]
struct ServiceState {
    jobs: HashMap<JobId, JobRecord>,
    queue: Vec<QueueEntry>,
    inflight: std::collections::HashSet<SpecKey>,
    next_id: u64,
    /// Journal replay map: job digest → checkpointed completion.
    replay: HashMap<SpecKey, JournalEntry>,
}

/// Per-service metric handles, registered in the service's own
/// [`telemetry::MetricsRegistry`] (in exposition order). The registry
/// replaces the former hand-rolled atomics plus by-hand string assembly:
/// lifecycle counters and the latency histogram (seconds-scale
/// [`telemetry::DURATION_BUCKETS`]) are updated live, while cache/disk
/// totals owned by the engine and the point-in-time queue gauges are
/// mirrored into their handles when [`JobService::metrics_text`] renders.
struct Metrics {
    registry: telemetry::MetricsRegistry,
    submitted: telemetry::Counter,
    completed: telemetry::Counter,
    resumed: telemetry::Counter,
    failed_attempts: telemetry::Counter,
    retried: telemetry::Counter,
    dead: telemetry::Counter,
    cancelled: telemetry::Counter,
    journal_errors: telemetry::Counter,
    cache_hits: telemetry::Counter,
    cache_misses: telemetry::Counter,
    cache_disk_hits: telemetry::Counter,
    cache_disk_corrupt: telemetry::Counter,
    cache_disk_writes: telemetry::Counter,
    cache_disk_write_errors: telemetry::Counter,
    queued: telemetry::Gauge,
    running: telemetry::Gauge,
    cache_entries: telemetry::Gauge,
    duration: telemetry::Histogram,
}

impl Metrics {
    fn new() -> Self {
        let registry = telemetry::MetricsRegistry::new();
        let submitted = registry.counter(
            "qdaflow_jobs_submitted_total",
            "Jobs accepted by the service.",
            &[],
        );
        let completed = registry.counter(
            "qdaflow_jobs_completed_total",
            "Jobs that reached Done (including journal replays).",
            &[],
        );
        let resumed = registry.counter(
            "qdaflow_jobs_resumed_total",
            "Jobs answered from the checkpoint journal without re-execution.",
            &[],
        );
        let failed_attempts = registry.counter(
            "qdaflow_job_attempts_failed_total",
            "Individual execution attempts that failed (before retry accounting).",
            &[],
        );
        let retried = registry.counter(
            "qdaflow_jobs_retried_total",
            "Jobs requeued with backoff after a transient failure.",
            &[],
        );
        let dead = registry.counter(
            "qdaflow_jobs_dead_total",
            "Jobs moved to the dead-letter bucket (deterministic failures, exhausted retries, cancellations).",
            &[],
        );
        let cancelled = registry.counter(
            "qdaflow_jobs_cancelled_total",
            "Jobs cancelled before running.",
            &[],
        );
        let journal_errors = registry.counter(
            "qdaflow_journal_append_errors_total",
            "Checkpoint records that could not be appended (completion still served from memory).",
            &[],
        );
        let cache_hits = registry.counter(
            "qdaflow_oracle_cache_hits_total",
            "Compilations answered from the in-memory oracle cache.",
            &[],
        );
        let cache_misses = registry.counter(
            "qdaflow_oracle_cache_misses_total",
            "Compilations actually performed (in-memory and disk layers both missed).",
            &[],
        );
        let cache_disk_hits = registry.counter(
            "qdaflow_oracle_cache_disk_hits_total",
            "Compilations answered from the disk-backed oracle cache.",
            &[],
        );
        let cache_disk_corrupt = registry.counter(
            "qdaflow_oracle_cache_disk_corrupt_total",
            "Disk cache entries rejected as truncated or corrupt (degraded to misses).",
            &[],
        );
        let cache_disk_writes = registry.counter(
            "qdaflow_oracle_cache_disk_writes_total",
            "Disk cache entries written (atomic temp-file + rename).",
            &[],
        );
        let cache_disk_write_errors = registry.counter(
            "qdaflow_oracle_cache_disk_write_errors_total",
            "Disk cache entry writes that failed (best-effort, swallowed).",
            &[],
        );
        let queued = registry.gauge(
            "qdaflow_jobs_queued",
            "Jobs currently waiting for a worker (including retry backoffs).",
            &[],
        );
        let running = registry.gauge("qdaflow_jobs_running", "Jobs currently executing.", &[]);
        let cache_entries = registry.gauge(
            "qdaflow_oracle_cache_entries",
            "Programs currently held by the in-memory oracle cache.",
            &[],
        );
        let duration = registry.histogram(
            "qdaflow_job_duration_seconds",
            "Wall-clock job execution time (per attempt, successes and failures).",
            &telemetry::DURATION_BUCKETS,
            &[],
        );
        Metrics {
            registry,
            submitted,
            completed,
            resumed,
            failed_attempts,
            retried,
            dead,
            cancelled,
            journal_errors,
            cache_hits,
            cache_misses,
            cache_disk_hits,
            cache_disk_corrupt,
            cache_disk_writes,
            cache_disk_write_errors,
            queued,
            running,
            cache_entries,
            duration,
        }
    }
}

struct ServiceInner {
    engine: Arc<BatchEngine>,
    exec: ExecConfig,
    max_attempts: u32,
    retry_base_delay: Duration,
    state: Mutex<ServiceState>,
    /// Workers wait here for queue activity (new jobs, freed single-flight
    /// keys, elapsed backoffs, shutdown).
    wake: Condvar,
    /// [`JobService::wait`] callers wait here for terminal transitions.
    done: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    journal: Option<Mutex<Journal>>,
}

impl ServiceInner {
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().expect("job service state lock poisoned")
    }
}

/// The persistent, fault-tolerant batch job service. See the module docs
/// for the full contract; construction spawns the worker pool, and dropping
/// the last handle shuts it down (in-flight jobs finish, queued jobs are
/// abandoned — resubmit after a restart, the journal and disk cache make
/// that cheap).
pub struct JobService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for JobService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobService")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl JobService {
    /// Creates a service with its own [`BatchEngine`] (a disk-backed cache
    /// when [`JobServiceConfig::disk_cache_dir`] is set) and spawns the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] when the cache directory cannot be
    /// created or the journal cannot be opened.
    pub fn new(config: JobServiceConfig) -> Result<Self, EngineError> {
        let cache = match &config.disk_cache_dir {
            Some(dir) => OracleCache::with_disk(DiskCache::open(dir)?),
            None => OracleCache::new(),
        };
        let engine = Arc::new(BatchEngine::with_cache(cache, config.exec));
        Self::with_engine(engine, config)
    }

    /// Creates a service over an existing engine (sharing its
    /// compiled-oracle cache with other users of that engine, e.g. the
    /// shell's synchronous paths) and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] when the journal cannot be opened.
    pub fn with_engine(
        engine: Arc<BatchEngine>,
        config: JobServiceConfig,
    ) -> Result<Self, EngineError> {
        let mut state = ServiceState::default();
        let journal = match &config.journal_path {
            Some(path) => {
                let (journal, replay) = Journal::open(path)?;
                state.replay = replay;
                Some(Mutex::new(journal))
            }
            None => None,
        };
        let inner = Arc::new(ServiceInner {
            engine,
            exec: config.exec,
            max_attempts: config.max_attempts.max(1),
            retry_base_delay: config.retry_base_delay,
            state: Mutex::new(state),
            wake: Condvar::new(),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::new(),
            journal,
        });
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("qdaflow-job-worker-{index}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn job service worker")
            })
            .collect();
        Ok(Self { inner, workers })
    }

    /// The engine executing the jobs (for cache statistics/pre-warming).
    pub fn engine(&self) -> &BatchEngine {
        &self.inner.engine
    }

    /// Submits one job, returning its handle immediately. A job whose
    /// [`BatchJob::digest`] is checkpointed in the journal is answered
    /// instantly from the checkpoint — `Done` without recompiling or
    /// resimulating anything (counted in `qdaflow_jobs_resumed_total`).
    ///
    /// # Errors
    ///
    /// [`EngineError::ZeroShots`] for a job requesting zero shots.
    pub fn submit(&self, job: BatchJob) -> Result<JobId, EngineError> {
        if job.shots == 0 {
            return Err(EngineError::ZeroShots { index: 0 });
        }
        let digest = job.digest();
        let key = job.cache_key();
        let trace_parent = telemetry::current_span();
        let mut state = self.inner.lock();
        let id = JobId(state.next_id);
        state.next_id += 1;
        self.inner.metrics.submitted.inc();
        if let Some(entry) = state.replay.get(&digest) {
            let status = JobStatus::Done(entry.result.clone());
            state.jobs.insert(
                id,
                JobRecord {
                    job,
                    attempts: 0,
                    status,
                    trace_parent,
                },
            );
            self.inner.metrics.resumed.inc();
            self.inner.metrics.completed.inc();
            drop(state);
            telemetry::event(
                "job",
                format!("job {id} resumed from journal"),
                vec![("job", id.to_string())],
            );
            self.inner.done.notify_all();
            return Ok(id);
        }
        state.jobs.insert(
            id,
            JobRecord {
                job,
                attempts: 0,
                status: JobStatus::Queued,
                trace_parent,
            },
        );
        state.queue.push(QueueEntry {
            id,
            key,
            ready_at: Instant::now(),
        });
        drop(state);
        telemetry::event(
            "job",
            format!("job {id} queued"),
            vec![("job", id.to_string())],
        );
        self.inner.wake.notify_one();
        Ok(id)
    }

    /// Submits a whole batch (all jobs validated before any is enqueued).
    ///
    /// # Errors
    ///
    /// [`EngineError::ZeroShots`] naming the first offending job; nothing
    /// is submitted on error.
    pub fn submit_batch(&self, jobs: &[BatchJob]) -> Result<Vec<JobId>, EngineError> {
        if let Some(index) = jobs.iter().position(|job| job.shots == 0) {
            return Err(EngineError::ZeroShots { index });
        }
        jobs.iter().map(|job| self.submit(job.clone())).collect()
    }

    /// The current status of a job (`None` for an unknown id).
    pub fn poll(&self, id: JobId) -> Option<JobStatus> {
        self.inner
            .lock()
            .jobs
            .get(&id)
            .map(|record| record.status.clone())
    }

    /// Blocks until the job reaches a terminal status (`Done`/`Dead`) and
    /// returns it (`None` for an unknown id). Retries are bounded, so every
    /// job terminates.
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut state = self.inner.lock();
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(record) if record.status.is_terminal() => return Some(record.status.clone()),
                Some(_) => {
                    state = self
                        .inner
                        .done
                        .wait(state)
                        .expect("job service state lock poisoned");
                }
            }
        }
    }

    /// Like [`JobService::wait`], bounded by `timeout`: `None` when the job
    /// is unknown or still running when the timeout elapses.
    pub fn wait_timeout(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.lock();
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(record) if record.status.is_terminal() => return Some(record.status.clone()),
                Some(_) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (next, _) = self
                        .inner
                        .done
                        .wait_timeout(state, deadline - now)
                        .expect("job service state lock poisoned");
                    state = next;
                }
            }
        }
    }

    /// Cancels a job that is not currently running: `Queued` jobs and
    /// `Failed` jobs awaiting retry move to the dead-letter bucket with
    /// [`EngineError::JobCancelled`]. Returns `false` for unknown, running
    /// or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.inner.lock();
        let Some(record) = state.jobs.get_mut(&id) else {
            return false;
        };
        if !matches!(record.status, JobStatus::Queued | JobStatus::Failed { .. }) {
            return false;
        }
        record.status = JobStatus::Dead {
            attempts: record.attempts,
            error: EngineError::JobCancelled,
        };
        state.queue.retain(|entry| entry.id != id);
        self.inner.metrics.cancelled.inc();
        self.inner.metrics.dead.inc();
        drop(state);
        self.inner.done.notify_all();
        true
    }

    /// The dead-letter bucket: every job in [`JobStatus::Dead`], with its
    /// attempt count and final error, in submission order.
    pub fn dead_letters(&self) -> Vec<(JobId, u32, EngineError)> {
        let state = self.inner.lock();
        let mut dead: Vec<(JobId, u32, EngineError)> = state
            .jobs
            .iter()
            .filter_map(|(&id, record)| match &record.status {
                JobStatus::Dead { attempts, error } => Some((id, *attempts, error.clone())),
                _ => None,
            })
            .collect();
        dead.sort_by_key(|(id, _, _)| *id);
        dead
    }

    /// Counters and the job-latency histogram in Prometheus text
    /// exposition format (`text/plain; version=0.0.4`) — ready to serve
    /// from a `/metrics` endpoint or scrape off a file.
    pub fn metrics_text(&self) -> String {
        let m = &self.inner.metrics;
        let cache = self.inner.engine.cache().stats();
        let disk = self.inner.engine.cache().disk_stats();
        let (queued, running) = {
            let state = self.inner.lock();
            let queued = state.queue.len();
            let running = state
                .jobs
                .values()
                .filter(|record| matches!(record.status, JobStatus::Running))
                .count();
            (queued, running)
        };
        // Mirror the engine-owned cache totals and the point-in-time queue
        // depths into their registry handles, then render the registry.
        m.cache_hits.store(cache.hits);
        m.cache_misses.store(cache.misses);
        m.cache_disk_hits.store(cache.disk_hits);
        m.cache_disk_corrupt.store(disk.corrupt);
        m.cache_disk_writes.store(disk.writes);
        m.cache_disk_write_errors.store(disk.write_errors);
        m.queued.set(queued as i64);
        m.running.set(running as i64);
        m.cache_entries.set(cache.entries as i64);
        m.registry.render()
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        // Raised under the state lock: a worker reads the flag and starts
        // waiting on `wake` under that lock, so it either sees the flag or
        // is already waiting when the notification below is sent. Raised
        // outside it, the notification could fall between the two and the
        // join below would wait forever.
        {
            let _state = self
                .inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.wake.notify_all();
        self.inner.done.notify_all();
        for worker in self.workers.drain(..) {
            // Workers never panic (jobs are unwind-caught), but a join
            // failure must not abort the drop.
            let _ = worker.join();
        }
    }
}

/// What a worker found when scanning the queue.
enum Candidate {
    /// A runnable entry at this queue position.
    Ready(usize),
    /// Nothing runnable before this instant (earliest backoff expiry).
    Backoff(Instant),
    /// Queue empty, or every entry blocked behind an in-flight key.
    Blocked,
}

fn next_candidate(state: &ServiceState, now: Instant) -> Candidate {
    let mut earliest: Option<Instant> = None;
    let mut best: Option<(usize, Instant)> = None;
    for (position, entry) in state.queue.iter().enumerate() {
        if state.inflight.contains(&entry.key) {
            continue;
        }
        if entry.ready_at <= now {
            // Oldest ready entry wins (stable within a scan: earliest
            // ready_at, then queue order).
            if best.map(|(_, at)| entry.ready_at < at).unwrap_or(true) {
                best = Some((position, entry.ready_at));
            }
        } else if earliest.map(|at| entry.ready_at < at).unwrap_or(true) {
            earliest = Some(entry.ready_at);
        }
    }
    match (best, earliest) {
        (Some((position, _)), _) => Candidate::Ready(position),
        (None, Some(at)) => Candidate::Backoff(at),
        (None, None) => Candidate::Blocked,
    }
}

fn worker_loop(inner: &ServiceInner) {
    loop {
        // Take the next runnable job under the lock.
        let (id, key, job, trace_parent) = {
            let mut state = inner.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match next_candidate(&state, Instant::now()) {
                    Candidate::Ready(position) => {
                        let entry = state.queue.remove(position);
                        state.inflight.insert(entry.key);
                        let record = state
                            .jobs
                            .get_mut(&entry.id)
                            .expect("queued job has a record");
                        record.status = JobStatus::Running;
                        break (entry.id, entry.key, record.job.clone(), record.trace_parent);
                    }
                    Candidate::Backoff(at) => {
                        let timeout = at.saturating_duration_since(Instant::now());
                        let (next, _) = inner
                            .wake
                            .wait_timeout(state, timeout)
                            .expect("job service state lock poisoned");
                        state = next;
                    }
                    Candidate::Blocked => {
                        state = inner
                            .wake
                            .wait(state)
                            .expect("job service state lock poisoned");
                    }
                }
            }
        };
        // Execute outside the lock, under the per-job panic boundary (the
        // engine catches its own panics too — this is the outer net for
        // anything around it). The span is parented under the span that was
        // open when the job was submitted — possibly on another thread.
        let started = Instant::now();
        let span = if telemetry::enabled() {
            telemetry::span_with_parent("job", format!("job {id} running"), trace_parent)
        } else {
            telemetry::SpanGuard::disabled()
        };
        let outcome = catch_job_panic(|| inner.engine.run_job(&job, &inner.exec));
        drop(span);
        let wall = started.elapsed();
        inner.metrics.duration.observe_duration(wall);
        let mut state = inner.lock();
        state.inflight.remove(&key);
        let record = state.jobs.get_mut(&id).expect("running job has a record");
        record.attempts += 1;
        let attempts = record.attempts;
        match outcome {
            Ok(result) => {
                if let Some(journal) = &inner.journal {
                    let appended = journal.lock().expect("journal lock poisoned").append(
                        job.digest(),
                        &result,
                        wall,
                    );
                    if appended.is_err() {
                        inner.metrics.journal_errors.inc();
                    }
                }
                record.status = JobStatus::Done(result);
                inner.metrics.completed.inc();
                drop(state);
                if telemetry::enabled() {
                    telemetry::event(
                        "job",
                        format!("job {id} done"),
                        vec![
                            ("job", id.to_string()),
                            ("attempts", attempts.to_string()),
                            ("wall_us", wall.as_micros().to_string()),
                        ],
                    );
                }
                inner.done.notify_all();
            }
            Err(error) => {
                inner.metrics.failed_attempts.inc();
                let transient = matches!(error, EngineError::JobPanicked { .. });
                if transient && attempts < inner.max_attempts {
                    let exponent = attempts.saturating_sub(1).min(16);
                    let delay = inner.retry_base_delay * 2u32.pow(exponent);
                    record.status = JobStatus::Failed { attempts, error };
                    state.queue.push(QueueEntry {
                        id,
                        key,
                        ready_at: Instant::now() + delay,
                    });
                    inner.metrics.retried.inc();
                    drop(state);
                    if telemetry::enabled() {
                        telemetry::event(
                            "job",
                            format!("job {id} retrying"),
                            vec![
                                ("job", id.to_string()),
                                ("attempts", attempts.to_string()),
                                ("delay_ms", delay.as_millis().to_string()),
                            ],
                        );
                    }
                } else {
                    record.status = JobStatus::Dead { attempts, error };
                    inner.metrics.dead.inc();
                    drop(state);
                    if telemetry::enabled() {
                        telemetry::event(
                            "job",
                            format!("job {id} dead"),
                            vec![("job", id.to_string()), ("attempts", attempts.to_string())],
                        );
                    }
                    inner.done.notify_all();
                }
            }
        }
        // Finishing may unblock a duplicate-key entry or a retry timer.
        inner.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SynthesisChoice;
    use crate::OracleSpec;
    use qdaflow_boolfn::Permutation;

    fn perm_job(shots: usize, seed: u64) -> BatchJob {
        BatchJob::new(
            OracleSpec::permutation(
                Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap(),
                SynthesisChoice::default(),
            ),
            shots,
            seed,
        )
    }

    fn fast_config() -> JobServiceConfig {
        JobServiceConfig {
            workers: 2,
            max_attempts: 3,
            retry_base_delay: Duration::from_millis(1),
            ..JobServiceConfig::default()
        }
    }

    #[test]
    fn submit_wait_done_matches_the_synchronous_engine() {
        let service = JobService::new(fast_config()).unwrap();
        let job = perm_job(500, 42);
        let id = service.submit(job.clone()).unwrap();
        let Some(JobStatus::Done(result)) = service.wait(id) else {
            panic!("job did not complete");
        };
        let direct = BatchEngine::new().run_batch(&[job]).unwrap();
        assert_eq!(result, direct[0]);
        assert_eq!(service.poll(id), Some(JobStatus::Done(direct[0].clone())));
    }

    #[test]
    fn one_panicking_job_fails_alone_while_siblings_complete() {
        let service = JobService::new(fast_config()).unwrap();
        let ids = service
            .submit_batch(&[
                perm_job(100, 1),
                BatchJob::new(OracleSpec::fault_injection(true, 7), 100, 2),
                perm_job(100, 3),
            ])
            .unwrap();
        assert!(matches!(service.wait(ids[0]), Some(JobStatus::Done(_))));
        assert!(matches!(service.wait(ids[2]), Some(JobStatus::Done(_))));
        let Some(JobStatus::Dead { attempts, error }) = service.wait(ids[1]) else {
            panic!("fault-injected job did not dead-letter");
        };
        assert_eq!(attempts, 3, "panics are retried to the attempt cap");
        assert!(matches!(error, EngineError::JobPanicked { ref message }
            if message.contains("injected compilation panic")));
        let dead = service.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].0, ids[1]);
    }

    #[test]
    fn deterministic_failures_dead_letter_without_retries() {
        let service = JobService::new(fast_config()).unwrap();
        let id = service
            .submit(BatchJob::new(OracleSpec::fault_injection(false, 1), 64, 1))
            .unwrap();
        let Some(JobStatus::Dead { attempts, error }) = service.wait(id) else {
            panic!("deterministic failure did not dead-letter");
        };
        assert_eq!(attempts, 1, "typed errors are not retried");
        assert!(matches!(error, EngineError::Flow { .. }));
        let text = service.metrics_text();
        assert!(text.contains("qdaflow_jobs_retried_total 0"));
        assert!(text.contains("qdaflow_jobs_dead_total 1"));
    }

    #[test]
    fn zero_shot_jobs_are_rejected_at_submission() {
        let service = JobService::new(fast_config()).unwrap();
        assert!(matches!(
            service.submit(perm_job(0, 1)),
            Err(EngineError::ZeroShots { index: 0 })
        ));
        assert!(matches!(
            service.submit_batch(&[perm_job(10, 1), perm_job(0, 2)]),
            Err(EngineError::ZeroShots { index: 1 })
        ));
        // Nothing was enqueued.
        assert!(service
            .metrics_text()
            .contains("qdaflow_jobs_submitted_total 0"));
    }

    #[test]
    fn duplicate_submissions_single_flight_the_compilation() {
        let service = JobService::new(JobServiceConfig {
            workers: 4,
            ..fast_config()
        })
        .unwrap();
        let ids = service
            .submit_batch(&[perm_job(64, 1), perm_job(64, 2), perm_job(64, 3)])
            .unwrap();
        for id in ids {
            assert!(matches!(service.wait(id), Some(JobStatus::Done(_))));
        }
        let stats = service.engine().cache().stats();
        assert_eq!(stats.misses, 1, "one compile under any worker count");
        assert_eq!(stats.hits, 2, "duplicates replay from the warm cache");
    }

    #[test]
    fn cancel_withdraws_queued_jobs() {
        // One worker, and the first job is a panicking one that retries
        // with a long backoff — the second job can be cancelled while the
        // worker is busy elsewhere. Deterministic alternative: cancel
        // before any worker can take the job by submitting a large backlog.
        let service = JobService::new(JobServiceConfig {
            workers: 1,
            retry_base_delay: Duration::from_secs(60),
            ..fast_config()
        })
        .unwrap();
        // Occupy the single worker with a slow-ish real job first.
        let busy = service.submit(perm_job(50_000, 9)).unwrap();
        let victim = service.submit(perm_job(64, 10)).unwrap();
        // The victim is queued behind the busy job on the only worker; if
        // the race is lost and it already runs/finished, cancel reports
        // false — accept both, but the status must stay coherent.
        let cancelled = service.cancel(victim);
        let status = service.wait(victim).unwrap();
        if cancelled {
            assert!(matches!(
                status,
                JobStatus::Dead {
                    error: EngineError::JobCancelled,
                    ..
                }
            ));
        } else {
            assert!(matches!(status, JobStatus::Done(_)));
        }
        assert!(matches!(service.wait(busy), Some(JobStatus::Done(_))));
        assert!(!service.cancel(busy), "terminal jobs cannot be cancelled");
    }

    #[test]
    fn journal_checkpoints_replay_on_resume() {
        let dir =
            std::env::temp_dir().join(format!("qdaflow-service-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("journal.log");
        let config = JobServiceConfig {
            journal_path: Some(journal_path.clone()),
            ..fast_config()
        };
        let job = perm_job(300, 5);
        let first_result = {
            let service = JobService::new(config.clone()).unwrap();
            let id = service.submit(job.clone()).unwrap();
            let Some(JobStatus::Done(result)) = service.wait(id) else {
                panic!("first run did not complete");
            };
            result
        };
        // A fresh service over the same journal: the identical job replays
        // without compiling; a different job (other seed) does not.
        let service = JobService::new(config).unwrap();
        let id = service.submit(job).unwrap();
        let Some(JobStatus::Done(result)) = service.wait(id) else {
            panic!("resumed job did not complete");
        };
        assert_eq!(result, first_result);
        let stats = service.engine().cache().stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "journal replay touches no compiler at all"
        );
        let text = service.metrics_text();
        assert!(text.contains("qdaflow_jobs_resumed_total 1"));
        let other = service.submit(perm_job(300, 6)).unwrap();
        assert!(matches!(service.wait(other), Some(JobStatus::Done(_))));
        assert_eq!(service.engine().cache().stats().misses, 1);
    }

    #[test]
    fn metrics_text_counts_queue_and_cache_activity() {
        let service = JobService::new(fast_config()).unwrap();
        let id = service.submit(perm_job(128, 1)).unwrap();
        service.wait(id);
        let text = service.metrics_text();
        for needle in [
            "qdaflow_jobs_submitted_total 1",
            "qdaflow_jobs_completed_total 1",
            "qdaflow_oracle_cache_misses_total 1",
            "qdaflow_job_duration_seconds_count 1",
            "qdaflow_job_duration_seconds_bucket{le=\"+Inf\"} 1",
            "# TYPE qdaflow_job_duration_seconds histogram",
            "# TYPE qdaflow_jobs_queued gauge",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
