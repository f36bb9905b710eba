//! The job registry: the in-memory job table, the round-robin runnable
//! queue, the bounded worker pool, and the server-wide evaluation cache.
//!
//! Scheduling model: a job runs as a sequence of **slices**. One slice is
//! one `explore_checked` call that resumes the job's checkpoint, observes
//! a bounded number of generation boundaries
//! ([`ServeConfig::slice`]), writes its checkpoint, and stops
//! cooperatively. Unfinished jobs go to the back of the queue, so `W`
//! workers serve any number of tenants fairly with at most `W` slices in
//! flight. Because every slice boundary is a checkpoint boundary, the
//! interleaving is invisible in the results: fronts, audit counters, and
//! canonical traces are bit-identical to an uninterrupted run.

use crate::job::{front_to_json, status_doc, JobPaths, JobSpec, JobState, JobTotals};
use crate::progress::{ProgressTap, TapSink};
use mcmap_core::{attach_trace, explore_checked, CacheStats, MetricsSink, Resume, SharedEvalCache};
use mcmap_obs::{push_json_str, RecorderBuilder};
use mcmap_resilience::atomic_write;
use mcmap_telemetry::{Class, Counter, Gauge, Histogram, Registry as MetricsRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Server-side knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root directory holding one subdirectory per job.
    pub jobs_dir: PathBuf,
    /// Worker threads running job slices (0 = one per available core).
    pub workers: usize,
    /// Generation boundaries per slice — the fairness quantum. Small
    /// values interleave tenants finely at the cost of more checkpoint
    /// writes; the results never change either way.
    pub slice: usize,
    /// Entry bound of the server-wide cross-job evaluation cache.
    pub cache_cap: usize,
    /// Evaluation threads per slice. Defaults to 1: the worker pool
    /// already parallelizes across jobs, so per-job fan-out would just
    /// oversubscribe the cores.
    pub job_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs_dir: PathBuf::from("jobs"),
            workers: 0,
            slice: 2,
            cache_cap: 1 << 20,
            job_threads: 1,
        }
    }
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Per-job cooperative-stop flag, handed to every slice. A fresh
    /// `Arc` is installed on resume so an old cancel cannot leak in.
    stop: Arc<AtomicBool>,
    cancel_requested: bool,
    generation_done: Option<usize>,
    error: Option<String>,
    totals: JobTotals,
    tap: Arc<ProgressTap>,
}

#[derive(Debug)]
struct Inner {
    jobs: BTreeMap<String, JobEntry>,
    queue: VecDeque<String>,
    next_id: u64,
    draining: bool,
}

/// The shared state behind every connection handler and worker thread.
#[derive(Debug)]
pub struct Registry {
    cfg: ServeConfig,
    shared: SharedEvalCache,
    inner: Mutex<Inner>,
    /// Signalled when the queue gains work or draining starts.
    work: Condvar,
    /// Signalled when a worker finishes a slice (drain waits on this).
    idle: Condvar,
    /// The server's metrics registry. Every slice's recorder folds its
    /// events into it through a [`MetricsSink`], so the `eval.*` /
    /// `sched.*` series aggregate across all tenants; the serve layer adds
    /// its own `serve.*` instruments (request latency, queue depth, slice
    /// duration) — all timing, hence `Class::Nondet`.
    metrics: MetricsRegistry,
    /// Runnable-queue length (all timing-dependent: `Class::Nondet`).
    queue_depth: Arc<Gauge>,
    /// Trace events lost server-wide: ring evictions and failed JSONL
    /// writes, summed from every finished slice's recorder.
    dropped_events: Arc<Counter>,
    /// Server-wide slice duration (per-job siblings carry a `job` label).
    slice_wall: Arc<Histogram>,
}

/// What one slice produced, handed back to the worker loop for the state
/// transition under the registry lock.
enum SliceVerdict {
    /// The slice hit its boundary budget; the job has more generations.
    Unfinished,
    /// The generation budget is exhausted; `front.json` is written.
    Completed,
    /// The exploration returned a typed error.
    Failed(String),
}

impl Registry {
    /// Opens (or creates) the jobs directory and recovers every persisted
    /// job: terminal states are kept, anything else becomes `interrupted`
    /// — its checkpoint vouches for the last completed boundary.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or scanning the jobs directory.
    pub fn open(cfg: ServeConfig) -> std::io::Result<Arc<Registry>> {
        std::fs::create_dir_all(&cfg.jobs_dir)?;
        let mut jobs = BTreeMap::new();
        let mut next_id = 1u64;
        for entry in std::fs::read_dir(&cfg.jobs_dir)? {
            let entry = entry?;
            let id = entry.file_name().to_string_lossy().to_string();
            let paths = JobPaths::new(&cfg.jobs_dir, &id);
            let Ok(spec_text) = std::fs::read_to_string(paths.spec()) else {
                continue; // not a job directory
            };
            let Ok(spec_json) = mcmap_obs::parse_json(&spec_text) else {
                continue;
            };
            let Ok(spec) = JobSpec::from_json(&spec_json) else {
                continue;
            };
            if let Some(n) = id.strip_prefix("job-").and_then(|s| s.parse::<u64>().ok()) {
                next_id = next_id.max(n + 1);
            }
            let status = std::fs::read_to_string(paths.status())
                .ok()
                .and_then(|t| mcmap_obs::parse_json(&t).ok());
            let persisted = status
                .as_ref()
                .and_then(|j| {
                    j.get("state")
                        .and_then(|v| v.as_str())
                        .and_then(JobState::parse)
                })
                .unwrap_or(JobState::Interrupted);
            let generation_done = status
                .as_ref()
                .and_then(|j| j.get("generation_done").and_then(|v| v.as_u64()))
                .map(|g| g as usize);
            let error = status
                .as_ref()
                .and_then(|j| j.get("error").and_then(|v| v.as_str()).map(String::from));
            // `queued` and `running` cannot survive a restart: whatever
            // was in flight died with the old process.
            let state = match persisted {
                s if s.is_terminal() => s,
                _ => JobState::Interrupted,
            };
            if state != persisted {
                let _ = atomic_write(
                    &paths.status(),
                    status_doc(state, generation_done, error.as_deref()).as_bytes(),
                );
            }
            jobs.insert(
                id,
                JobEntry {
                    spec,
                    state,
                    stop: Arc::new(AtomicBool::new(false)),
                    cancel_requested: false,
                    generation_done,
                    error,
                    totals: JobTotals::default(),
                    tap: Arc::new(ProgressTap::default()),
                },
            );
        }
        let shared = SharedEvalCache::with_capacity(cfg.cache_cap);
        let metrics = MetricsRegistry::new();
        let queue_depth = metrics.gauge("serve.queue_depth", Class::Nondet);
        let dropped_events = metrics.counter("telemetry.dropped_events", Class::Nondet);
        let slice_wall = metrics.histogram("serve.slice_ns", Class::Nondet);
        Ok(Arc::new(Registry {
            cfg,
            shared,
            inner: Mutex::new(Inner {
                jobs,
                queue: VecDeque::new(),
                next_id,
                draining: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            metrics,
            queue_depth,
            dropped_events,
            slice_wall,
        }))
    }

    /// The server's metrics registry (the `metrics` verb payload source).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Keeps the `serve.queue_depth` gauge in step with the queue. Called
    /// under the registry lock after every queue mutation.
    fn note_queue_depth(&self, inner: &Inner) {
        self.queue_depth.set(inner.queue.len() as i64);
    }

    /// The effective worker-pool size.
    pub fn worker_count(&self) -> usize {
        if self.cfg.workers > 0 {
            self.cfg.workers
        } else {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        }
    }

    /// Spawns the worker pool. The handles join once [`Registry::drain`]
    /// completes.
    pub fn start_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.worker_count())
            .map(|i| {
                let reg = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("mcmap-serve-worker-{i}"))
                    .spawn(move || reg.worker_loop())
                    .expect("spawn worker")
            })
            .collect()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry poisoned")
    }

    /// Submits a spec: persists it, enqueues the job, and returns its id.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec names an unknown benchmark, the
    /// server is draining, or persistence fails.
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        if !mcmap_benchmarks::NAMES.contains(&spec.benchmark.as_str()) {
            return Err(format!("unknown benchmark {:?}", spec.benchmark));
        }
        let mut inner = self.lock();
        if inner.draining {
            return Err("server is shutting down".into());
        }
        let id = format!("job-{:06}", inner.next_id);
        inner.next_id += 1;
        let paths = JobPaths::new(&self.cfg.jobs_dir, &id);
        std::fs::create_dir_all(&paths.dir).map_err(|e| format!("create job dir: {e}"))?;
        atomic_write(&paths.spec(), spec.to_json().as_bytes()).map_err(|e| e.to_string())?;
        atomic_write(
            &paths.status(),
            status_doc(JobState::Queued, None, None).as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        inner.jobs.insert(
            id.clone(),
            JobEntry {
                spec,
                state: JobState::Queued,
                stop: Arc::new(AtomicBool::new(false)),
                cancel_requested: false,
                generation_done: None,
                error: None,
                totals: JobTotals::default(),
                tap: Arc::new(ProgressTap::default()),
            },
        );
        inner.queue.push_back(id.clone());
        self.note_queue_depth(&inner);
        drop(inner);
        self.work.notify_one();
        Ok(id)
    }

    /// Requests cancellation: a queued job cancels immediately, a running
    /// one stops at its next generation boundary (checkpoint written).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids and already-terminal jobs.
    pub fn cancel(&self, id: &str) -> Result<(), String> {
        let mut inner = self.lock();
        let entry = inner
            .jobs
            .get_mut(id)
            .ok_or_else(|| format!("no such job {id:?}"))?;
        match entry.state {
            JobState::Queued => {
                entry.state = JobState::Cancelled;
                entry.cancel_requested = true;
                let generation = entry.generation_done;
                self.persist_status(id, JobState::Cancelled, generation, None);
                inner.queue.retain(|q| q != id);
                self.note_queue_depth(&inner);
                Ok(())
            }
            JobState::Running => {
                entry.cancel_requested = true;
                entry.stop.store(true, Ordering::SeqCst);
                Ok(())
            }
            s => Err(format!("job {id:?} is already {}", s.as_str())),
        }
    }

    /// Re-enqueues an interrupted or cancelled job; its next slice resumes
    /// the checkpoint bit-identically.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids and non-resumable states.
    pub fn resume(&self, id: &str) -> Result<(), String> {
        let mut inner = self.lock();
        if inner.draining {
            return Err("server is shutting down".into());
        }
        let entry = inner
            .jobs
            .get_mut(id)
            .ok_or_else(|| format!("no such job {id:?}"))?;
        match entry.state {
            JobState::Interrupted | JobState::Cancelled => {
                entry.state = JobState::Queued;
                entry.stop = Arc::new(AtomicBool::new(false));
                entry.cancel_requested = false;
                entry.error = None;
                let generation = entry.generation_done;
                self.persist_status(id, JobState::Queued, generation, None);
                inner.queue.push_back(id.to_string());
                self.note_queue_depth(&inner);
                drop(inner);
                self.work.notify_one();
                Ok(())
            }
            s => Err(format!("job {id:?} is {}, not resumable", s.as_str())),
        }
    }

    /// The job's current state, if it exists.
    pub fn state_of(&self, id: &str) -> Option<JobState> {
        self.lock().jobs.get(id).map(|e| e.state)
    }

    /// Subscribes to the job's progress stream (one generation number per
    /// completed boundary), along with its state and last persisted
    /// generation at subscription time — what a late subscriber has
    /// already missed.
    pub fn subscribe(&self, id: &str) -> Option<(Receiver<u64>, JobState, Option<usize>)> {
        let inner = self.lock();
        let entry = inner.jobs.get(id)?;
        Some((entry.tap.subscribe(), entry.state, entry.generation_done))
    }

    /// The job's state and last persisted generation, if it exists.
    pub fn progress_of(&self, id: &str) -> Option<(JobState, Option<usize>)> {
        self.lock()
            .jobs
            .get(id)
            .map(|e| (e.state, e.generation_done))
    }

    /// The full status document of one job (the `status` verb payload).
    pub fn status_json(&self, id: &str) -> Option<String> {
        let inner = self.lock();
        let e = inner.jobs.get(id)?;
        let mut out = String::from("{\"id\":");
        push_json_str(&mut out, id);
        out.push_str(",\"state\":");
        push_json_str(&mut out, e.state.as_str());
        out.push_str(",\"spec\":");
        out.push_str(&e.spec.to_json());
        match e.generation_done {
            Some(g) => out.push_str(&format!(",\"generation_done\":{g}")),
            None => out.push_str(",\"generation_done\":null"),
        }
        out.push_str(&format!(",\"slices\":{}", e.totals.slices));
        if let Some(err) = &e.error {
            out.push_str(",\"error\":");
            push_json_str(&mut out, err);
        }
        out.push_str(&format!(
            ",\"eval\":{},\"analysis\":{}}}",
            e.totals.eval.to_json(),
            e.totals.analysis.to_json()
        ));
        Some(out)
    }

    /// One line per job: id, state, benchmark, last completed generation.
    pub fn list_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("[");
        for (i, (id, e)) in inner.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            push_json_str(&mut out, id);
            out.push_str(",\"state\":");
            push_json_str(&mut out, e.state.as_str());
            out.push_str(",\"benchmark\":");
            push_json_str(&mut out, &e.spec.benchmark);
            match e.generation_done {
                Some(g) => out.push_str(&format!(",\"generation_done\":{g}}}")),
                None => out.push_str(",\"generation_done\":null}"),
            }
        }
        out.push(']');
        out
    }

    /// The persisted final front of a completed job.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids and jobs without a front yet.
    pub fn front_json(&self, id: &str) -> Result<String, String> {
        if self.state_of(id).is_none() {
            return Err(format!("no such job {id:?}"));
        }
        let paths = JobPaths::new(&self.cfg.jobs_dir, id);
        std::fs::read_to_string(paths.front())
            .map_err(|_| format!("job {id:?} has no front yet (not completed)"))
    }

    /// Global server statistics: the cross-job cache counters and the job
    /// population by state.
    pub fn server_stats_json(&self) -> String {
        let stats = self.shared.stats();
        let inner = self.lock();
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for e in inner.jobs.values() {
            *counts.entry(e.state.as_str()).or_insert(0) += 1;
        }
        let jobs: Vec<String> = counts.iter().map(|(s, n)| format!("\"{s}\":{n}")).collect();
        format!(
            "{{\"cache\":{},\"workers\":{},\"queue_depth\":{},\"dropped_events\":{},\
             \"jobs\":{{{}}}}}",
            cache_stats_json(&stats),
            self.worker_count(),
            inner.queue.len(),
            self.dropped_events.get(),
            jobs.join(","),
        )
    }

    /// The shared cross-job cache handle (for in-process harnesses).
    pub fn shared_cache(&self) -> &SharedEvalCache {
        &self.shared
    }

    /// Drains the server: no new slices start, running slices stop at
    /// their next generation boundary (checkpoints written), and every
    /// non-terminal job is persisted as `interrupted`. Returns once all
    /// workers are idle; the worker threads then exit.
    pub fn drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        for e in inner.jobs.values() {
            if e.state == JobState::Running {
                e.stop.store(true, Ordering::SeqCst);
            }
        }
        self.work.notify_all();
        while inner.jobs.values().any(|e| e.state == JobState::Running) {
            inner = self.idle.wait(inner).expect("registry poisoned");
        }
        let pending: Vec<String> = inner
            .jobs
            .iter()
            .filter(|(_, e)| !e.state.is_terminal())
            .map(|(id, _)| id.clone())
            .collect();
        for id in pending {
            let e = inner.jobs.get_mut(&id).expect("listed above");
            e.state = JobState::Interrupted;
            let generation = e.generation_done;
            self.persist_status(&id, JobState::Interrupted, generation, None);
        }
        inner.queue.clear();
        self.note_queue_depth(&inner);
    }

    /// Whether [`Registry::drain`] has started.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    fn persist_status(
        &self,
        id: &str,
        state: JobState,
        generation_done: Option<usize>,
        error: Option<&str>,
    ) {
        let paths = JobPaths::new(&self.cfg.jobs_dir, id);
        // Best-effort: the checkpoint is the durable record, status.json
        // only speeds up restart recovery.
        let _ = atomic_write(
            &paths.status(),
            status_doc(state, generation_done, error).as_bytes(),
        );
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let (id, spec, stop, tap) = {
                let mut inner = self.lock();
                loop {
                    if inner.draining {
                        return;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        self.note_queue_depth(&inner);
                        let e = inner.jobs.get_mut(&id).expect("queued job exists");
                        e.state = JobState::Running;
                        let out = (
                            id.clone(),
                            e.spec.clone(),
                            Arc::clone(&e.stop),
                            Arc::clone(&e.tap),
                        );
                        let generation = e.generation_done;
                        self.persist_status(&id, JobState::Running, generation, None);
                        break out;
                    }
                    inner = self.work.wait(inner).expect("registry poisoned");
                }
            };
            let t0 = Instant::now();
            let (verdict, stats) = self.run_slice(&id, &spec, stop, tap);
            let slice_ns = t0.elapsed().as_nanos() as u64;
            self.slice_wall.observe(slice_ns);
            self.metrics
                .histogram_with("serve.slice_ns", &[("job", &id)], Class::Nondet)
                .observe(slice_ns);
            let mut inner = self.lock();
            let draining = inner.draining;
            let e = inner.jobs.get_mut(&id).expect("running job exists");
            if let Some((eval, analysis, generation)) = stats {
                e.totals.absorb(&eval, &analysis);
                e.generation_done = generation.or(e.generation_done);
            }
            let next = match verdict {
                SliceVerdict::Failed(msg) => {
                    e.error = Some(msg);
                    JobState::Failed
                }
                SliceVerdict::Completed => JobState::Completed,
                SliceVerdict::Unfinished if e.cancel_requested => JobState::Cancelled,
                SliceVerdict::Unfinished if draining => JobState::Interrupted,
                SliceVerdict::Unfinished => JobState::Queued,
            };
            e.state = next;
            let generation = e.generation_done;
            let error = e.error.clone();
            self.persist_status(&id, next, generation, error.as_deref());
            if next == JobState::Queued {
                inner.queue.push_back(id);
                self.note_queue_depth(&inner);
                drop(inner);
                self.work.notify_one();
            } else {
                drop(inner);
            }
            self.idle.notify_all();
        }
    }

    /// Runs one budget slice of a job: resume checkpoint → bounded number
    /// of generation boundaries → checkpoint → stop.
    #[allow(clippy::type_complexity)]
    fn run_slice(
        &self,
        id: &str,
        spec: &JobSpec,
        stop: Arc<AtomicBool>,
        tap: Arc<ProgressTap>,
    ) -> (
        SliceVerdict,
        Option<(
            mcmap_core::EvalStats,
            mcmap_core::AnalysisStats,
            Option<usize>,
        )>,
    ) {
        let Some(b) = spec.resolve() else {
            return (
                SliceVerdict::Failed(format!("unknown benchmark {:?}", spec.benchmark)),
                None,
            );
        };
        let paths = JobPaths::new(&self.cfg.jobs_dir, id);
        let ckpt = paths.checkpoint();
        let mut resume = ckpt.exists().then(|| Resume::from(ckpt.clone()));
        let trace = paths.trace();
        // A resumed slice continues the trace past the checkpoint's
        // high-water mark; the metrics fold skips the re-emitted preamble
        // below that mark too. The checkpoint is read here, once, for the
        // slice too.
        let (builder, trace_seq) =
            match attach_trace(RecorderBuilder::new(), &trace, resume.as_mut()) {
                Ok((builder, trace_seq, _)) => (builder, trace_seq),
                Err(e) => {
                    return (
                        SliceVerdict::Failed(format!(
                            "cannot attach trace {}: {e}",
                            trace.display()
                        )),
                        None,
                    );
                }
            };
        let builder = builder.sink(Box::new(TapSink(tap))).sink(Box::new(
            MetricsSink::new(self.metrics.clone()).skip_upto(trace_seq),
        ));
        let mut cfg = spec.dse_config(&b, self.cfg.job_threads);
        cfg.shared_cache = Some(self.shared.clone());
        cfg.obs = builder.build();
        cfg.resilience.checkpoint = Some(ckpt);
        cfg.resilience.resume = resume;
        cfg.resilience.stop = Some(stop);
        cfg.resilience.stop_after_slice = Some(self.cfg.slice.max(1));
        match explore_checked(&b.apps, &b.arch, cfg) {
            Ok(outcome) => {
                // The slice's recorder is done emitting: whatever its sinks
                // lost (ring evictions, failed trace writes) is final, and
                // silent loss becomes a visible server-wide counter.
                self.dropped_events.add(outcome.obs.dropped_events());
                let generation = outcome.result.history.last().map(|row| row.generation);
                let stats = Some((outcome.eval_stats.clone(), outcome.analysis, generation));
                if outcome.interrupted {
                    (SliceVerdict::Unfinished, stats)
                } else {
                    let front = front_to_json(&outcome.reports, |i| {
                        b.apps.app(mcmap_model::AppId::new(i)).name().to_string()
                    });
                    if let Err(e) = atomic_write(&paths.front(), front.as_bytes()) {
                        return (SliceVerdict::Failed(format!("persist front: {e}")), stats);
                    }
                    (SliceVerdict::Completed, stats)
                }
            }
            Err(e) => (SliceVerdict::Failed(e.to_string()), None),
        }
    }
}

/// Renders the shared cache's counters as JSON.
pub fn cache_stats_json(stats: &CacheStats) -> String {
    format!(
        "{{\"entries\":{},\"hits\":{},\"misses\":{},\"insertions\":{},\
         \"evictions\":{},\"hit_rate\":{:.6}}}",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.insertions,
        stats.evictions,
        stats.hit_rate(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mcmap_serve_registry_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec(seed: u64) -> JobSpec {
        JobSpec {
            benchmark: "cruise".into(),
            population: 8,
            generations: 2,
            seed,
        }
    }

    fn wait_terminal(reg: &Registry, id: &str) -> JobState {
        for _ in 0..600 {
            let s = reg.state_of(id).expect("job exists");
            if s.is_terminal() {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("job {id} did not reach a terminal state");
    }

    #[test]
    fn jobs_complete_identically_to_a_direct_run_and_share_the_cache() {
        let dir = scratch("complete");
        let reg = Registry::open(ServeConfig {
            jobs_dir: dir.clone(),
            workers: 2,
            slice: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let workers = reg.start_workers();
        // Two identical tenants plus one distinct one.
        let a = reg.submit(tiny_spec(8)).unwrap();
        let b = reg.submit(tiny_spec(8)).unwrap();
        let c = reg.submit(tiny_spec(9)).unwrap();
        for id in [&a, &b, &c] {
            assert_eq!(wait_terminal(&reg, id), JobState::Completed);
        }
        // Identical specs produce byte-identical fronts; the distinct seed
        // may differ.
        let fa = reg.front_json(&a).unwrap();
        let fb = reg.front_json(&b).unwrap();
        assert_eq!(fa, fb, "identical tenants must agree bit-for-bit");
        // The twin job resolves from the shared cache.
        let stats = reg.shared_cache().stats();
        assert!(stats.hits > 0, "cross-job sharing produced no hits");
        // Per-job counters are observable through the status document.
        let status = reg.status_json(&b).unwrap();
        let json = mcmap_obs::parse_json(&status).unwrap();
        assert!(json.get("eval").and_then(|e| e.get("cache_hits")).is_some());
        assert!(json.get("analysis").is_some());
        assert_eq!(
            json.get("state").and_then(|v| v.as_str()),
            Some("completed")
        );
        reg.drain();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_fold_matches_the_job_ledger_across_resumed_slices() {
        use mcmap_telemetry::SampleValue;
        let dir = scratch("metrics_fold");
        let reg = Registry::open(ServeConfig {
            jobs_dir: dir.clone(),
            workers: 1,
            slice: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let workers = reg.start_workers();
        let id = reg
            .submit(JobSpec {
                generations: 3,
                ..tiny_spec(8)
            })
            .unwrap();
        assert_eq!(wait_terminal(&reg, &id), JobState::Completed);
        let (slices, analysis, genomes) = {
            let inner = reg.lock();
            let t = &inner.jobs[&id].totals;
            (t.slices, t.analysis, t.eval.genomes)
        };
        assert!(
            slices >= 3,
            "the job must resume at least twice: {slices} slices"
        );
        // A counter as `(value, value)`, a histogram as `(count, sum)`.
        let sample = |name: &str| {
            let snap = reg.metrics().snapshot();
            match snap.metrics.into_iter().find(|m| m.id.name == name) {
                Some(m) => match m.value {
                    SampleValue::Counter(v) => (v, v),
                    SampleValue::Histogram(h) => (h.count(), h.sum()),
                    SampleValue::Gauge(_) => panic!("{name} is a gauge"),
                },
                None => panic!("no metric {name}"),
            }
        };
        assert_eq!(sample("sched.analyze").0, analysis.candidates);
        let backend_calls = sample("sched.analyze.backend_calls").1;
        assert_eq!(backend_calls, analysis.backend_calls);
        let normal_misses = sample("sched.analyze.normal_misses").1;
        assert_eq!(normal_misses, analysis.normal_misses);
        assert_eq!(sample("eval.batch.genomes").1, genomes);
        // Every resumed slice re-emits the preamble (the pre-flight mark,
        // the opening of `dse.explore`) below the checkpoint's trace_seq;
        // the fold must count it once, like the trace file.
        assert_eq!(sample("lint.preflight").0, 1);
        assert_eq!(sample("dse.explore.population").0, 1);
        reg.drain();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_interrupts_and_a_reopened_registry_resumes_bit_identically() {
        let ref_dir = scratch("drain_reference");
        let dir = scratch("drain_resume");
        let spec = JobSpec {
            benchmark: "cruise".into(),
            population: 8,
            generations: 4,
            seed: 8,
        };
        // Reference: an uninterrupted run of the same spec.
        let reference = {
            let reg = Registry::open(ServeConfig {
                jobs_dir: ref_dir.clone(),
                workers: 1,
                slice: 1,
                ..ServeConfig::default()
            })
            .unwrap();
            let workers = reg.start_workers();
            let id = reg.submit(spec.clone()).unwrap();
            assert_eq!(wait_terminal(&reg, &id), JobState::Completed);
            let front = reg.front_json(&id).unwrap();
            reg.drain();
            for w in workers {
                w.join().unwrap();
            }
            front
        };
        // Interrupted leg: drain once the first boundary is checkpointed.
        {
            let reg = Registry::open(ServeConfig {
                jobs_dir: dir.clone(),
                workers: 1,
                slice: 1,
                ..ServeConfig::default()
            })
            .unwrap();
            let workers = reg.start_workers();
            let id = reg.submit(spec.clone()).unwrap();
            for _ in 0..600 {
                let status = reg.status_json(&id).unwrap();
                let json = mcmap_obs::parse_json(&status).unwrap();
                if json
                    .get("generation_done")
                    .and_then(|v| v.as_u64())
                    .is_some()
                {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            reg.drain();
            for w in workers {
                w.join().unwrap();
            }
            let state = reg.state_of(&id).unwrap();
            assert!(
                state == JobState::Interrupted || state == JobState::Completed,
                "drain left the job {state:?}"
            );
        }
        // Reopen the same jobs directory: the unfinished job surfaces as
        // interrupted and resumes to the reference front bit-for-bit.
        {
            let reg = Registry::open(ServeConfig {
                jobs_dir: dir.clone(),
                workers: 1,
                slice: 1,
                ..ServeConfig::default()
            })
            .unwrap();
            let workers = reg.start_workers();
            let id = "job-000001";
            match reg.state_of(id).expect("job recovered from disk") {
                JobState::Interrupted => reg.resume(id).unwrap(),
                JobState::Completed => {}
                s => panic!("unexpected recovered state {s:?}"),
            }
            assert_eq!(wait_terminal(&reg, id), JobState::Completed);
            assert_eq!(
                reg.front_json(id).unwrap(),
                reference,
                "resumed front must be bit-identical to the uninterrupted run"
            );
            reg.drain();
            for w in workers {
                w.join().unwrap();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn queued_jobs_cancel_immediately_and_resume_requeues() {
        let dir = scratch("cancel_queued");
        // No workers started: submissions stay queued.
        let reg = Registry::open(ServeConfig {
            jobs_dir: dir.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        let id = reg.submit(tiny_spec(8)).unwrap();
        assert_eq!(reg.state_of(&id), Some(JobState::Queued));
        reg.cancel(&id).unwrap();
        assert_eq!(reg.state_of(&id), Some(JobState::Cancelled));
        assert!(
            reg.cancel(&id).is_err(),
            "terminal jobs cannot cancel again"
        );
        reg.resume(&id).unwrap();
        assert_eq!(reg.state_of(&id), Some(JobState::Queued));
        assert!(
            reg.submit(JobSpec {
                benchmark: "nope".into(),
                ..tiny_spec(8)
            })
            .is_err(),
            "unknown benchmarks are rejected at submission"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
