//! Async analytics jobs: the registry behind `POST /jobs`.
//!
//! A job is one [`kron_analyze`] whole-graph kernel running on its own
//! thread against the server's already-open engine. The registry pins
//! the lifecycle the wire protocol exposes:
//!
//! * **Bounded pool** — at most `max_concurrent` jobs run at once;
//!   a submission beyond the cap is **rejected with 429** (not queued:
//!   a queue would make "running" unobservable and let a burst of
//!   submissions park unbounded work behind the cap). Point queries are
//!   served by the connection pool, so a full job pool never delays
//!   them — that isolation is the reason the pool exists.
//! * **States** — `running → done | failed`. There is no separate
//!   cancelled state: a cancelled job fails with `error: "cancelled"`,
//!   so pollers only ever distinguish three states.
//! * **Cooperative cancel** — `DELETE /jobs/<id>` (and server shutdown)
//!   flip the job's stop flag; the kernel notices at its next row batch
//!   and the worker records the failure. Nothing is ever torn down
//!   mid-write — kernels are read-only over the mapping.
//! * **Validation surfacing** — a kernel that finishes but contradicts
//!   the closed forms ([`AnalyzeError::Validation`]) fails the job *and*
//!   keeps the full result document, so `GET /jobs/<id>` shows exactly
//!   which total mismatched; the registry counts it separately for
//!   `/stats` and the server's exit-code contract.
//!
//! Job ids are sequential from 1 per server process; entries are kept
//! for the life of the process (an id never dangles while an operator
//! might still poll it).

use crate::engine::ServeEngine;
use kron_analyze::{run_kernel, AnalyzeError, KernelSpec};
use kron_stream::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Concurrent-jobs cap when `--jobs` is not given.
pub(crate) const DEFAULT_MAX_JOBS: usize = 2;

/// Lifecycle of one job, as exposed on the wire.
pub(crate) enum JobState {
    Running,
    Done(Json),
    Failed {
        error: String,
        /// Present when the kernel completed but failed validation: the
        /// full result document, mismatch fields included.
        result: Option<Json>,
    },
}

/// One submitted job.
pub(crate) struct JobEntry {
    pub(crate) id: u64,
    pub(crate) kernel: &'static str,
    pub(crate) spec: KernelSpec,
    pub(crate) stop: AtomicBool,
    pub(crate) state: Mutex<JobState>,
}

impl JobEntry {
    /// One line of the `GET /jobs` listing: id, kernel, and state only.
    /// Result and error documents stay behind `GET /jobs/<id>` — a
    /// listing that inlined every finished PageRank would grow without
    /// bound.
    pub(crate) fn summary_json(&self) -> Json {
        let state = match &*self.state.lock().unwrap() {
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed { .. } => "failed",
        };
        Json::obj(vec![
            ("id", Json::num(self.id)),
            ("kernel", Json::str(self.kernel)),
            ("state", Json::str(state)),
        ])
    }

    /// The poll document — the `GET /jobs/<id>` body without its
    /// trailing newline.
    pub(crate) fn to_json(&self) -> Json {
        let state = self.state.lock().unwrap();
        let mut pairs = vec![
            ("id", Json::num(self.id)),
            ("kernel", Json::str(self.kernel)),
        ];
        match &*state {
            JobState::Running => pairs.push(("state", Json::str("running"))),
            JobState::Done(doc) => {
                pairs.push(("state", Json::str("done")));
                pairs.push(("result", doc.clone()));
            }
            JobState::Failed { error, result } => {
                pairs.push(("state", Json::str("failed")));
                pairs.push(("error", Json::str(error)));
                if let Some(doc) = result {
                    pairs.push(("result", doc.clone()));
                }
            }
        }
        Json::obj(pairs)
    }
}

/// All jobs of one server run, plus the `/stats` counters.
pub(crate) struct JobRegistry {
    max_concurrent: usize,
    /// Every job ever submitted; `jobs[i]` has id `i + 1`.
    jobs: Mutex<Vec<Arc<JobEntry>>>,
    running: AtomicUsize,
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    validation_failures: AtomicU64,
}

impl JobRegistry {
    pub(crate) fn new(max_concurrent: usize) -> JobRegistry {
        JobRegistry {
            max_concurrent,
            jobs: Mutex::new(Vec::new()),
            running: AtomicUsize::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            validation_failures: AtomicU64::new(0),
        }
    }

    /// Admit a job or reject it at the pool cap. Admission reserves the
    /// running slot under the registry lock, so a burst of concurrent
    /// submissions can never overshoot the cap.
    pub(crate) fn submit(
        &self,
        kernel: &'static str,
        spec: KernelSpec,
    ) -> Result<Arc<JobEntry>, (usize, usize)> {
        let mut jobs = self.jobs.lock().unwrap();
        let running = self.running.load(Ordering::SeqCst);
        if running >= self.max_concurrent {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err((running, self.max_concurrent));
        }
        self.running.fetch_add(1, Ordering::SeqCst);
        let entry = Arc::new(JobEntry {
            id: jobs.len() as u64 + 1,
            kernel,
            spec,
            stop: AtomicBool::new(false),
            state: Mutex::new(JobState::Running),
        });
        jobs.push(Arc::clone(&entry));
        Ok(entry)
    }

    /// The job with `id`, if it was ever submitted.
    pub(crate) fn lookup(&self, id: u64) -> Option<Arc<JobEntry>> {
        let jobs = self.jobs.lock().unwrap();
        id.checked_sub(1)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| jobs.get(i))
            .map(Arc::clone)
    }

    /// Total jobs ever submitted (= highest id).
    pub(crate) fn submitted(&self) -> u64 {
        self.jobs.lock().unwrap().len() as u64
    }

    /// Raise every job's stop flag — the shutdown path: the accept loop
    /// has stopped, and the scope join behind it must not wait on a
    /// PageRank that still has 900 iterations to go.
    pub(crate) fn cancel_all(&self) {
        for job in self.jobs.lock().unwrap().iter() {
            job.stop.store(true, Ordering::SeqCst);
        }
    }

    pub(crate) fn jobs_failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub(crate) fn jobs_cancelled(&self) -> u64 {
        self.cancelled.load(Ordering::Relaxed)
    }

    pub(crate) fn validation_failures(&self) -> u64 {
        self.validation_failures.load(Ordering::Relaxed)
    }

    /// The `GET /jobs` body (without its trailing newline): every job
    /// ever submitted, in submission order (= ascending id).
    pub(crate) fn list_json(&self) -> Json {
        let jobs = self.jobs.lock().unwrap();
        Json::obj(vec![(
            "jobs",
            Json::Arr(jobs.iter().map(|j| j.summary_json()).collect()),
        )])
    }

    /// The `"jobs"` object merged into `/stats`.
    pub(crate) fn stats_json(&self) -> Json {
        Json::obj(vec![
            ("cap", Json::num(self.max_concurrent)),
            ("submitted", Json::num(self.submitted())),
            ("running", Json::num(self.running.load(Ordering::SeqCst))),
            ("done", Json::num(self.done.load(Ordering::Relaxed))),
            ("failed", Json::num(self.failed.load(Ordering::Relaxed))),
            (
                "cancelled",
                Json::num(self.cancelled.load(Ordering::Relaxed)),
            ),
            ("rejected", Json::num(self.rejected.load(Ordering::Relaxed))),
            (
                "validation_failures",
                Json::num(self.validation_failures.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// Run one admitted job to completion on the current thread (the worker
/// body `POST /jobs` spawns) and record its outcome.
pub(crate) fn execute(engine: &ServeEngine, registry: &JobRegistry, entry: &JobEntry) {
    // Leave a core for the connection pool: kernel results are
    // thread-count-independent by contract, so shaving one worker only
    // costs job wall-clock while keeping point-query tail latency flat
    // (`kronbench`'s `serve.jobs.query_p99_under_job_us` measures exactly
    // this). An operator's explicit RAYON_NUM_THREADS is honored untouched
    // (a pool of size 0 reads it). The pool scopes the size to this job:
    // no thread writes the process environment.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = match std::env::var_os("RAYON_NUM_THREADS") {
        Some(_) => 0,
        None => cores.saturating_sub(1).max(1),
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a pool that only sets a thread count always builds");
    let outcome = pool.install(|| run_kernel(engine.shard_set(), &entry.spec, &entry.stop));
    let next = match outcome {
        Ok(doc) => {
            registry.done.fetch_add(1, Ordering::Relaxed);
            JobState::Done(doc)
        }
        Err(AnalyzeError::Cancelled) => {
            registry.cancelled.fetch_add(1, Ordering::Relaxed);
            JobState::Failed {
                error: "cancelled".into(),
                result: None,
            }
        }
        Err(AnalyzeError::Validation(doc)) => {
            registry.failed.fetch_add(1, Ordering::Relaxed);
            registry.validation_failures.fetch_add(1, Ordering::Relaxed);
            JobState::Failed {
                error: "validation failed: result contradicts the closed forms \
                        (artifact corrupt or stale)"
                    .into(),
                result: Some(*doc),
            }
        }
        Err(e) => {
            registry.failed.fetch_add(1, Ordering::Relaxed);
            JobState::Failed {
                error: e.to_string(),
                result: None,
            }
        }
    };
    *entry.state.lock().unwrap() = next;
    registry.running.fetch_sub(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_analyze::Kernel;

    fn spec() -> KernelSpec {
        KernelSpec::new(Kernel::Cc)
    }

    #[test]
    fn pool_cap_admits_exactly_max_concurrent() {
        let reg = JobRegistry::new(2);
        let a = reg.submit("cc", spec()).unwrap();
        let b = reg.submit("cc", spec()).unwrap();
        assert_eq!((a.id, b.id), (1, 2));
        assert_eq!(reg.submit("cc", spec()).err(), Some((2, 2)));
        assert_eq!(reg.rejected.load(Ordering::Relaxed), 1);
        // a worker finishing frees the slot; the next id keeps counting
        reg.running.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(reg.submit("cc", spec()).unwrap().id, 3);
        assert_eq!(reg.submitted(), 3);
    }

    #[test]
    fn lookup_is_by_id_and_cancel_all_flips_every_flag() {
        let reg = JobRegistry::new(8);
        let a = reg.submit("cc", spec()).unwrap();
        let b = reg.submit("bfs", spec()).unwrap();
        assert!(reg.lookup(0).is_none());
        assert!(reg.lookup(3).is_none());
        assert_eq!(reg.lookup(2).unwrap().kernel, "bfs");
        reg.cancel_all();
        assert!(a.stop.load(Ordering::SeqCst));
        assert!(b.stop.load(Ordering::SeqCst));
    }

    #[test]
    fn poll_document_tracks_state() {
        let reg = JobRegistry::new(1);
        let job = reg.submit("pagerank", spec()).unwrap();
        assert!(job.to_json().to_string().contains("\"state\":\"running\""));
        *job.state.lock().unwrap() = JobState::Failed {
            error: "cancelled".into(),
            result: None,
        };
        let doc = job.to_json().to_string();
        assert!(doc.contains("\"state\":\"failed\""), "{doc}");
        assert!(doc.contains("\"error\":\"cancelled\""), "{doc}");
        assert!(!doc.contains("result"), "{doc}");
    }
}
