//! The analytics job subsystem: long-running kernels as first-class,
//! pollable, cancellable jobs.
//!
//! A [`JobManager`] owns a small dedicated pool of runner threads —
//! deliberately separate from (and much smaller than) the interactive
//! worker pool, so a PageRank sweep never occupies a slot a point
//! lookup is waiting for. Admission is bounded: at most
//! `runners + max_pending` jobs may be live at once, and submissions
//! beyond that fail fast with [`SnbError::Overloaded`], the same typed
//! backpressure contract the interactive queue uses.
//!
//! A job pins **one** snapshot at start
//! ([`GraphBackend::pin_analytics_snapshot`], falling back to an ad-hoc
//! backend scan) and holds it for its whole run: results are exact for
//! that epoch and deliberately blind to concurrent writes. The state
//! machine is
//!
//! ```text
//! Queued ──▶ Running{iteration, delta} ──▶ Done
//!    │                 │                     └─(fetch top-k / full)
//!    │                 ├──▶ Failed(reason)
//!    └─────────────────┴──▶ Cancelled
//! ```
//!
//! and every transition is observable through [`JobManager::poll`] —
//! kernels report per-iteration progress into the record, so a remote
//! poller sees the iteration counter advance while the job runs.

use crate::kernels::{self, KernelCtl, PageRankConfig};
use parking_lot::{Condvar, Mutex};
use snb_core::snapshot::{snapshot_from_backend, CsrSnapshot};
use snb_core::{EdgeLabel, GraphBackend, Result, SnbError, Vid};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Job identifier, unique per manager, never reused.
pub type JobId = u64;

/// Which kernel a job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    PageRank(PageRankConfig),
    Wcc,
    Triangles,
}

impl JobKind {
    pub fn tag(&self) -> u8 {
        match self {
            JobKind::PageRank(_) => 0,
            JobKind::Wcc => 1,
            JobKind::Triangles => 2,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            JobKind::PageRank(_) => "pagerank",
            JobKind::Wcc => "wcc",
            JobKind::Triangles => "triangles",
        }
    }
}

/// Everything a submission carries.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub kind: JobKind,
    /// Edge label to traverse (`None` = all labels).
    pub label: Option<EdgeLabel>,
    /// Intra-job kernel workers (0 = the manager's default).
    pub workers: usize,
    /// Cooperative throttle: sleep this long after every iteration.
    /// Zero for full speed; benchmarks and the coexistence scenario use
    /// it to stretch a job so progress/cancellation are observable and
    /// interactive traffic keeps its share of the cores.
    pub pacing: Duration,
}

impl JobSpec {
    pub fn pagerank(cfg: PageRankConfig) -> JobSpec {
        JobSpec { kind: JobKind::PageRank(cfg), label: None, workers: 0, pacing: Duration::ZERO }
    }

    pub fn wcc() -> JobSpec {
        JobSpec { kind: JobKind::Wcc, label: None, workers: 0, pacing: Duration::ZERO }
    }

    pub fn triangles() -> JobSpec {
        JobSpec { kind: JobKind::Triangles, label: None, workers: 0, pacing: Duration::ZERO }
    }
}

/// Observable job state (see the module-level state machine).
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    Queued,
    Running { iteration: u32, delta: f64 },
    Done,
    Failed(String),
    Cancelled,
}

impl JobState {
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed(_) | JobState::Cancelled)
    }
}

/// A poll answer: the state plus run metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    pub id: JobId,
    pub kind_tag: u8,
    pub state: JobState,
    /// Epoch of the pinned snapshot (0 until the job starts).
    pub epoch: u64,
    /// Rows in the pinned snapshot (0 until the job starts).
    pub n_rows: u64,
    /// Milliseconds since submission.
    pub elapsed_ms: u64,
}

/// A finished job's result, as fetched (already mapped to [`Vid`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Ranks, descending; `iterations`/`delta` echo convergence.
    PageRank { iterations: u32, delta: f64, ranks: Vec<(Vid, f64)> },
    /// Component id per vertex — the smallest member `Vid` raw value.
    Wcc { components: u64, assignment: Vec<(Vid, u64)> },
    /// Per-vertex triangle count; `total` is the global count (Σ/3).
    Triangles { total: u64, counts: Vec<(Vid, u64)> },
}

impl JobOutput {
    /// Keep only the `k` *top* entries (by rank / component size
    /// already encoded in sort order / triangle count). Full results
    /// are pre-sorted at completion, so this is a truncation.
    pub fn truncate_top(&mut self, k: usize) {
        match self {
            JobOutput::PageRank { ranks, .. } => ranks.truncate(k),
            JobOutput::Wcc { assignment, .. } => assignment.truncate(k),
            JobOutput::Triangles { counts, .. } => counts.truncate(k),
        }
    }
}

/// Manager tuning knobs.
#[derive(Debug, Clone)]
pub struct AnalyticsConfig {
    /// Dedicated runner threads = jobs that may run concurrently.
    pub runners: usize,
    /// Jobs that may wait in the queue beyond the running ones.
    pub max_pending: usize,
    /// Kernel workers when the spec asks for 0.
    pub default_workers: usize,
}

impl Default for AnalyticsConfig {
    fn default() -> Self {
        AnalyticsConfig { runners: 1, max_pending: 4, default_workers: 2 }
    }
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
    output: Option<JobOutput>,
    epoch: u64,
    n_rows: u64,
    submitted: Instant,
}

struct ManagerInner {
    jobs: Vec<(JobId, Arc<Mutex<JobRecord>>)>,
    queue: VecDeque<JobId>,
    next_id: JobId,
    /// Queued + running, for bounded admission.
    live: usize,
    shutdown: bool,
}

/// Bounded, cancellable admission of analytics jobs onto a dedicated
/// low-priority runner pool. See the module docs for the state machine.
pub struct JobManager {
    backend: Arc<dyn GraphBackend>,
    inner: Mutex<ManagerInner>,
    cv: Condvar,
    cfg: AnalyticsConfig,
    runners: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Finished jobs kept for late fetches before the oldest are evicted.
const FINISHED_JOBS_KEPT: usize = 64;

impl JobManager {
    pub fn new(backend: Arc<dyn GraphBackend>, cfg: AnalyticsConfig) -> Arc<JobManager> {
        let mgr = Arc::new(JobManager {
            backend,
            inner: Mutex::new(ManagerInner {
                jobs: Vec::new(),
                queue: VecDeque::new(),
                next_id: 1,
                live: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            cfg: cfg.clone(),
            runners: Mutex::new(Vec::new()),
        });
        let mut handles = mgr.runners.lock();
        for _ in 0..cfg.runners.max(1) {
            let m = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || m.runner_loop()));
        }
        drop(handles);
        mgr
    }

    /// Admit a job or fail fast with `Overloaded` (bounded admission).
    pub fn submit(&self, spec: JobSpec) -> Result<JobId> {
        let mut inner = self.inner.lock();
        if inner.shutdown {
            return Err(SnbError::Backend("analytics manager is shut down".into()));
        }
        let cap = self.cfg.runners.max(1) + self.cfg.max_pending;
        if inner.live >= cap {
            return Err(SnbError::Overloaded(format!(
                "analytics job queue is full ({cap} live jobs)"
            )));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.live += 1;
        let record = Arc::new(Mutex::new(JobRecord {
            spec,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            output: None,
            epoch: 0,
            n_rows: 0,
            submitted: Instant::now(),
        }));
        inner.jobs.push((id, record));
        // Evict the oldest *finished* records past the retention cap so
        // a long-lived server does not accumulate results forever.
        let finished: Vec<usize> = inner
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, (_, r))| r.lock().state.is_terminal())
            .map(|(i, _)| i)
            .collect();
        if finished.len() > FINISHED_JOBS_KEPT {
            for &i in finished[..finished.len() - FINISHED_JOBS_KEPT].iter().rev() {
                inner.jobs.remove(i);
            }
        }
        inner.queue.push_back(id);
        drop(inner);
        self.cv.notify_one();
        Ok(id)
    }

    /// Current status of a job.
    pub fn poll(&self, id: JobId) -> Result<JobStatus> {
        let record = self.record(id)?;
        let r = record.lock();
        Ok(JobStatus {
            id,
            kind_tag: r.spec.kind.tag(),
            state: r.state.clone(),
            epoch: r.epoch,
            n_rows: r.n_rows,
            elapsed_ms: r.submitted.elapsed().as_millis() as u64,
        })
    }

    /// Fetch a finished job's result; `top_k = None` is the full
    /// result. Fails with `Conflict` while the job is not `Done`.
    pub fn fetch(&self, id: JobId, top_k: Option<usize>) -> Result<JobOutput> {
        let record = self.record(id)?;
        let r = record.lock();
        match (&r.state, &r.output) {
            (JobState::Done, Some(out)) => {
                let mut out = out.clone();
                if let Some(k) = top_k {
                    out.truncate_top(k);
                }
                Ok(out)
            }
            (state, _) => Err(SnbError::Conflict(format!(
                "job {id} is not done (state {state:?})"
            ))),
        }
    }

    /// Request cancellation. `true` if the job was still live (queued
    /// jobs flip to `Cancelled` immediately; running ones within one
    /// morsel). Cancelling a finished job is a no-op returning `false`.
    pub fn cancel(&self, id: JobId) -> Result<bool> {
        let record = self.record(id)?;
        let mut r = record.lock();
        match r.state {
            JobState::Queued => {
                r.state = JobState::Cancelled;
                r.cancel.store(true, Ordering::Relaxed);
                drop(r);
                let mut inner = self.inner.lock();
                inner.live = inner.live.saturating_sub(1);
                Ok(true)
            }
            JobState::Running { .. } => {
                r.cancel.store(true, Ordering::Relaxed);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Stop the runner pool (idempotent; also run by `Drop`). Queued
    /// jobs flip to `Cancelled`; running jobs are cancelled and joined.
    pub fn shutdown(&self) {
        let records: Vec<Arc<Mutex<JobRecord>>>;
        {
            let mut inner = self.inner.lock();
            if inner.shutdown {
                return;
            }
            inner.shutdown = true;
            records = inner.jobs.iter().map(|(_, r)| Arc::clone(r)).collect();
        }
        for r in records {
            let mut rec = r.lock();
            rec.cancel.store(true, Ordering::Relaxed);
            if rec.state == JobState::Queued {
                rec.state = JobState::Cancelled;
            }
        }
        self.cv.notify_all();
        let handles = std::mem::take(&mut *self.runners.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    fn record(&self, id: JobId) -> Result<Arc<Mutex<JobRecord>>> {
        let inner = self.inner.lock();
        inner
            .jobs
            .iter()
            .find(|(jid, _)| *jid == id)
            .map(|(_, r)| Arc::clone(r))
            .ok_or_else(|| SnbError::NotFound(format!("analytics job {id}")))
    }

    fn runner_loop(&self) {
        loop {
            let (id, record) = {
                let mut inner = self.inner.lock();
                loop {
                    if inner.shutdown {
                        return;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        let rec = inner
                            .jobs
                            .iter()
                            .find(|(jid, _)| *jid == id)
                            .map(|(_, r)| Arc::clone(r));
                        match rec {
                            Some(r) => break (id, r),
                            None => continue, // evicted — skip
                        }
                    }
                    self.cv.wait(&mut inner);
                }
            };
            // Cancelled while queued: nothing to run.
            {
                let mut r = record.lock();
                if r.state != JobState::Queued {
                    continue;
                }
                r.state = JobState::Running { iteration: 0, delta: f64::INFINITY };
            }
            let outcome = self.run_job(&record);
            {
                let mut r = record.lock();
                match outcome {
                    Ok(Some(out)) => {
                        r.output = Some(out);
                        r.state = JobState::Done;
                    }
                    Ok(None) => r.state = JobState::Cancelled,
                    Err(e) => r.state = JobState::Failed(e.to_string()),
                }
            }
            let mut inner = self.inner.lock();
            inner.live = inner.live.saturating_sub(1);
            let _ = id;
        }
    }

    /// Pin a snapshot and run the kernel, streaming progress into the
    /// record. `Ok(None)` = cancelled.
    fn run_job(&self, record: &Arc<Mutex<JobRecord>>) -> Result<Option<JobOutput>> {
        let (spec, cancel) = {
            let r = record.lock();
            (r.spec.clone(), Arc::clone(&r.cancel))
        };
        let snap = self.pin_for_job()?;
        {
            let mut r = record.lock();
            r.epoch = snap.epoch();
            r.n_rows = snap.n_rows() as u64;
        }
        let workers =
            if spec.workers == 0 { self.cfg.default_workers.max(1) } else { spec.workers };
        let pacing = spec.pacing;
        let progress = |iteration: u32, delta: f64| {
            {
                let mut r = record.lock();
                if !r.state.is_terminal() {
                    r.state = JobState::Running { iteration, delta };
                }
            }
            if !pacing.is_zero() {
                std::thread::sleep(pacing);
            }
        };
        let ctl = KernelCtl { cancel: &cancel, on_iter: &progress };
        let out = match spec.kind {
            JobKind::PageRank(cfg) => {
                match kernels::pagerank(&snap, spec.label, &cfg, workers, &ctl) {
                    None => return Ok(None),
                    Some(o) => {
                        let mut ranks: Vec<(Vid, f64)> = o
                            .ranks
                            .iter()
                            .enumerate()
                            .map(|(row, &r)| (snap.vid_of(row as u32), r))
                            .collect();
                        // Descending by rank, vid-raw tiebreak: a top-k
                        // fetch is then a plain truncation.
                        ranks.sort_by(|a, b| {
                            b.1.partial_cmp(&a.1)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(a.0.raw().cmp(&b.0.raw()))
                        });
                        JobOutput::PageRank { iterations: o.iterations, delta: o.delta, ranks }
                    }
                }
            }
            JobKind::Wcc => match kernels::wcc(&snap, spec.label, workers, &ctl) {
                None => return Ok(None),
                Some(labels) => {
                    let (components, assignment) = wcc_assignment(&snap, &labels);
                    JobOutput::Wcc { components, assignment }
                }
            },
            JobKind::Triangles => match kernels::triangles(&snap, spec.label, workers, &ctl) {
                None => return Ok(None),
                Some(counts) => {
                    let total: u64 = counts.iter().sum::<u64>() / 3;
                    let mut counts: Vec<(Vid, u64)> = counts
                        .iter()
                        .enumerate()
                        .map(|(row, &c)| (snap.vid_of(row as u32), c))
                        .collect();
                    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
                    JobOutput::Triangles { total, counts }
                }
            },
        };
        Ok(Some(out))
    }

    /// The snapshot a job runs over: the newest published epoch, or an
    /// ad-hoc backend scan for engines with no compactor at all. The
    /// scan is stamped with epoch 0 ("unversioned") — fine for a job
    /// that only promises point-in-time-ish semantics on such engines.
    fn pin_for_job(&self) -> Result<Arc<CsrSnapshot>> {
        if let Some(s) = self.backend.pin_analytics_snapshot() {
            return Ok(s);
        }
        Ok(Arc::new(snapshot_from_backend(&*self.backend, 0)?))
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Map row labels (smallest row id per component) to `(Vid, component
/// id)` pairs where the component id is the smallest member Vid raw —
/// the representation the sharded merge also produces, so single-node
/// and merged results are directly comparable. The assignment is sorted
/// by **descending component size** (component-id tiebreak), so a top-k
/// fetch surfaces the largest communities first.
pub fn wcc_assignment(snap: &CsrSnapshot, labels: &[u32]) -> (u64, Vec<(Vid, u64)>) {
    use std::collections::HashMap;
    let mut comp_vid: HashMap<u32, u64> = HashMap::new();
    let mut sizes: HashMap<u32, u64> = HashMap::new();
    for (row, &l) in labels.iter().enumerate() {
        let vid = snap.vid_of(row as u32).raw();
        let e = comp_vid.entry(l).or_insert(vid);
        if vid < *e {
            *e = vid;
        }
        *sizes.entry(l).or_insert(0) += 1;
    }
    let mut rows: Vec<(Vid, u64, u64)> = labels
        .iter()
        .enumerate()
        .map(|(row, l)| (snap.vid_of(row as u32), comp_vid[l], sizes[l]))
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)).then(a.0.raw().cmp(&b.0.raw())));
    (comp_vid.len() as u64, rows.into_iter().map(|(v, c, _)| (v, c)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::{PropKey, Value, VertexLabel};
    use snb_graph_native::NativeGraphStore;

    fn backend(n: u64, edges: &[(u64, u64)]) -> Arc<dyn GraphBackend> {
        let s = NativeGraphStore::new();
        for id in 1..=n {
            s.add_vertex(VertexLabel::Person, id, &[(PropKey::FirstName, Value::str("p"))])
                .unwrap();
        }
        for &(a, b) in edges {
            s.add_edge(
                EdgeLabel::Knows,
                Vid::new(VertexLabel::Person, a),
                Vid::new(VertexLabel::Person, b),
                &[],
            )
            .unwrap();
        }
        s.compact_now();
        Arc::new(s)
    }

    fn wait_done(mgr: &JobManager, id: JobId) -> JobStatus {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let st = mgr.poll(id).unwrap();
            if st.state.is_terminal() {
                return st;
            }
            assert!(Instant::now() < deadline, "job {id} did not finish: {st:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn submit_poll_fetch_lifecycle() {
        let mgr = JobManager::new(
            backend(5, &[(1, 2), (2, 3), (3, 1), (4, 5)]),
            AnalyticsConfig::default(),
        );
        let id = mgr.submit(JobSpec::pagerank(PageRankConfig::default())).unwrap();
        let st = wait_done(&mgr, id);
        assert_eq!(st.state, JobState::Done);
        assert!(st.epoch > 0, "native store stamps a real epoch");
        assert_eq!(st.n_rows, 5);
        let out = mgr.fetch(id, None).unwrap();
        match out {
            JobOutput::PageRank { ranks, iterations, .. } => {
                assert_eq!(ranks.len(), 5);
                assert!(iterations >= 1);
                let sum: f64 = ranks.iter().map(|(_, r)| r).sum();
                assert!((sum - 1.0).abs() < 1e-9, "{sum}");
                // Sorted descending for top-k truncation.
                for w in ranks.windows(2) {
                    assert!(w[0].1 >= w[1].1);
                }
            }
            other => panic!("wrong output {other:?}"),
        }
        // Top-k is a prefix of the full result.
        let top = mgr.fetch(id, Some(2)).unwrap();
        match top {
            JobOutput::PageRank { ranks, .. } => assert_eq!(ranks.len(), 2),
            other => panic!("wrong output {other:?}"),
        }
    }

    #[test]
    fn wcc_and_triangles_jobs() {
        let mgr = JobManager::new(
            backend(6, &[(1, 2), (2, 3), (1, 3), (4, 5)]),
            AnalyticsConfig::default(),
        );
        let id = mgr.submit(JobSpec::wcc()).unwrap();
        wait_done(&mgr, id);
        match mgr.fetch(id, None).unwrap() {
            JobOutput::Wcc { components, assignment } => {
                assert_eq!(components, 3);
                assert_eq!(assignment.len(), 6);
                // Largest component first in the sorted assignment.
                let first_comp = assignment[0].1;
                assert_eq!(
                    assignment.iter().filter(|(_, c)| *c == first_comp).count(),
                    3
                );
            }
            other => panic!("wrong output {other:?}"),
        }
        let id = mgr.submit(JobSpec::triangles()).unwrap();
        wait_done(&mgr, id);
        match mgr.fetch(id, None).unwrap() {
            JobOutput::Triangles { total, counts } => {
                assert_eq!(total, 1, "one triangle (1,2,3)");
                assert_eq!(counts.iter().map(|(_, c)| c).sum::<u64>(), 3);
            }
            other => panic!("wrong output {other:?}"),
        }
    }

    #[test]
    fn bounded_admission_overflows_typed() {
        let mgr = JobManager::new(
            backend(30, &[(1, 2)]),
            AnalyticsConfig { runners: 1, max_pending: 1, default_workers: 1 },
        );
        // Slow jobs (pacing) so the queue actually fills.
        let mut spec = JobSpec::pagerank(PageRankConfig {
            epsilon: 0.0,
            max_iters: 10_000,
            ..Default::default()
        });
        spec.pacing = Duration::from_millis(20);
        let a = mgr.submit(spec.clone()).unwrap();
        let b = mgr.submit(spec.clone()).unwrap();
        let err = mgr.submit(spec).unwrap_err();
        assert!(matches!(err, SnbError::Overloaded(_)), "{err}");
        assert!(mgr.cancel(a).unwrap());
        assert!(mgr.cancel(b).unwrap());
        for id in [a, b] {
            let st = wait_done(&mgr, id);
            assert_eq!(st.state, JobState::Cancelled);
        }
        // Capacity freed: a fresh job is admitted again.
        let c = mgr.submit(JobSpec::wcc()).unwrap();
        assert_eq!(wait_done(&mgr, c).state, JobState::Done);
    }

    #[test]
    fn cancel_mid_run_and_progress_advances() {
        let mgr = JobManager::new(
            backend(40, &(1..40).map(|i| (i, i + 1)).collect::<Vec<_>>()),
            AnalyticsConfig { runners: 1, max_pending: 2, default_workers: 2 },
        );
        let mut spec = JobSpec::pagerank(PageRankConfig {
            epsilon: 0.0,
            max_iters: 100_000,
            ..Default::default()
        });
        spec.pacing = Duration::from_millis(5);
        let id = mgr.submit(spec).unwrap();
        // Observe two distinct advancing Running iterations.
        let mut seen: Vec<u32> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while seen.len() < 2 && Instant::now() < deadline {
            if let JobState::Running { iteration, .. } = mgr.poll(id).unwrap().state {
                if iteration > 0 && seen.last() != Some(&iteration) {
                    seen.push(iteration);
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(seen.len() >= 2 && seen[1] > seen[0], "progress advanced: {seen:?}");
        assert!(mgr.cancel(id).unwrap());
        let st = wait_done(&mgr, id);
        assert_eq!(st.state, JobState::Cancelled);
        assert!(matches!(mgr.fetch(id, None), Err(SnbError::Conflict(_))));
    }

    #[test]
    fn unknown_job_is_not_found() {
        let mgr = JobManager::new(backend(2, &[]), AnalyticsConfig::default());
        assert!(matches!(mgr.poll(999), Err(SnbError::NotFound(_))));
        assert!(matches!(mgr.fetch(999, None), Err(SnbError::NotFound(_))));
        assert!(matches!(mgr.cancel(999), Err(SnbError::NotFound(_))));
    }
}
