//! Adjacency-list storage with index-free adjacency.

use parking_lot::{Condvar, Mutex, RwLock, RwLockWriteGuard};
use snb_core::schema::edge_def;
use snb_core::snapshot::{CsrBuilder, CsrSnapshot, EpochCell};
use snb_core::{
    Direction, EdgeLabel, FastMap, FastSet, GraphBackend, GraphWrite, PropKey, PropertyMap,
    Result, SnbError, Value, VertexLabel, Vid,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Checkpoint behaviour of the write path (see crate docs).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Run a checkpoint after this many write operations (0 = disabled).
    pub every_writes: usize,
    /// Modelled device stall per checkpoint. Serialization happens
    /// outside the write lock, so only the checkpointing writer pauses
    /// — readers keep going. This preserves the deliberate Figure-3
    /// write-throughput dips without serializing the read path.
    pub stall: Duration,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { every_writes: 4096, stall: Duration::from_millis(2) }
    }
}

/// Local ids below this bound use the dense per-label direct index
/// (64 MiB of `u32` per label worst-case, only paid up to the highest
/// id actually inserted); anything sparser falls back to the hash
/// index. 2^24 keeps SF-class datasets (millions of sequential ids per
/// label) on the one-array-access path.
const DIRECT_LIMIT: u64 = 1 << 24;

/// Sentinel for "no slot" in the dense direct index.
const NO_SLOT: u32 = u32::MAX;

/// One adjacency entry. `other` is a direct slot reference — following
/// it costs one array index, no index lookup (index-free adjacency).
#[derive(Debug, Clone)]
pub(crate) struct AdjEntry {
    pub label: EdgeLabel,
    pub other: u32,
    /// Edge properties live on the out-going side only.
    pub props: Option<Box<PropertyMap>>,
}

/// A vertex record with embedded adjacency.
#[derive(Debug)]
pub(crate) struct VertexSlot {
    pub vid: Vid,
    pub props: PropertyMap,
    pub out: Vec<AdjEntry>,
    pub inn: Vec<AdjEntry>,
}

/// Store internals; guarded by one `RwLock` (single-writer, like the
/// Neo4j embedded kernel's write path at the granularity that matters
/// for this benchmark).
pub(crate) struct Inner {
    pub slots: Vec<VertexSlot>,
    /// Hash index for sparse local ids (`>= DIRECT_LIMIT`) only; dense
    /// ids live in `direct` and never touch a hash probe.
    pub index: FastMap<Vid, u32>,
    /// Per-label dense direct index: `direct[label][local] == slot`,
    /// `NO_SLOT` marking gaps. The SNB generator hands out sequential
    /// local ids, so in practice every lookup is one array access.
    direct: [Vec<u32>; 8],
    pub by_label: [Vec<u32>; 8],
    pub edge_count: usize,
    dirty: Vec<u32>,
    writes_since_checkpoint: usize,
    /// Slots whose adjacency or properties changed since the last CSR
    /// fold (new slots need no entry — the fold detects them by row
    /// count). Drained by the compactor under the write lock.
    csr_dirty: Vec<u32>,
    csr_writes_since_fold: usize,
}

impl Inner {
    #[inline]
    pub(crate) fn slot_ix(&self, v: Vid) -> Option<u32> {
        let local = v.local();
        if local < DIRECT_LIMIT {
            // The direct index is authoritative for dense ids: inserts
            // always record them here, so a gap means "no such vertex".
            return match self.direct[v.label() as usize].get(local as usize) {
                Some(&ix) if ix != NO_SLOT => Some(ix),
                _ => None,
            };
        }
        self.index.get(&v).copied()
    }

    fn index_insert(&mut self, v: Vid, ix: u32) {
        let local = v.local();
        if local < DIRECT_LIMIT {
            let d = &mut self.direct[v.label() as usize];
            if d.len() <= local as usize {
                d.resize(local as usize + 1, NO_SLOT);
            }
            d[local as usize] = ix;
        } else {
            self.index.insert(v, ix);
        }
    }

    pub(crate) fn slot(&self, ix: u32) -> &VertexSlot {
        &self.slots[ix as usize]
    }

    /// Iterate adjacency entries of a slot in one direction (Both
    /// chains out then in, duplicates preserved).
    pub(crate) fn adj<'a>(
        &'a self,
        ix: u32,
        dir: Direction,
        label: Option<EdgeLabel>,
    ) -> impl Iterator<Item = &'a AdjEntry> + 'a {
        let slot = self.slot(ix);
        let (a, b): (&[AdjEntry], &[AdjEntry]) = match dir {
            Direction::Out => (&slot.out, &[]),
            Direction::In => (&slot.inn, &[]),
            Direction::Both => (&slot.out, &slot.inn),
        };
        a.iter().chain(b.iter()).filter(move |e| label.map_or(true, |l| e.label == l))
    }

    /// Insert a vertex record (no schema work needed), returning its
    /// slot index. Caller holds the write lock and handles dirty
    /// tracking / checkpointing.
    fn insert_vertex(&mut self, label: VertexLabel, local_id: u64, props: &[(PropKey, Value)]) -> Result<u32> {
        let vid = Vid::new(label, local_id);
        if self.slot_ix(vid).is_some() {
            return Err(SnbError::Conflict(format!("vertex {vid} already exists")));
        }
        if self.slots.len() >= NO_SLOT as usize {
            // Checked, not truncated: a silent `as u32` here would alias
            // slot 2^32 onto slot 0 and corrupt adjacency.
            return Err(SnbError::Capacity(format!("slot id space exhausted at {} vertices", self.slots.len())));
        }
        let ix = self.slots.len() as u32;
        let mut pm = PropertyMap::from_pairs(props);
        pm.set(PropKey::Id, Value::Int(local_id as i64));
        self.slots.push(VertexSlot { vid, props: pm, out: Vec::new(), inn: Vec::new() });
        self.index_insert(vid, ix);
        self.by_label[label as usize].push(ix);
        Ok(ix)
    }

    /// Insert an edge (schema already checked by the caller, outside
    /// the lock), returning the source slot index. Caller holds the
    /// write lock and handles dirty tracking / checkpointing.
    fn insert_edge(&mut self, label: EdgeLabel, src: Vid, dst: Vid, props: &[(PropKey, Value)]) -> Result<u32> {
        let s = self.slot_ix(src).ok_or_else(|| SnbError::NotFound(format!("vertex {src}")))?;
        let d = self.slot_ix(dst).ok_or_else(|| SnbError::NotFound(format!("vertex {dst}")))?;
        let eprops = if props.is_empty() { None } else { Some(Box::new(PropertyMap::from_pairs(props))) };
        self.slots[s as usize].out.push(AdjEntry { label, other: d, props: eprops });
        self.slots[d as usize].inn.push(AdjEntry { label, other: s, props: None });
        self.edge_count += 1;
        // Both endpoints' CSR rows are stale now (out side and in side).
        self.csr_dirty.push(s);
        self.csr_dirty.push(d);
        Ok(s)
    }

    /// Reserve extra adjacency capacity on `v`'s slot (no-op if the
    /// vertex does not exist yet).
    fn reserve_adj(&mut self, v: Vid, out_n: u32, in_n: u32) {
        if let Some(ix) = self.slot_ix(v) {
            let slot = &mut self.slots[ix as usize];
            slot.out.reserve(out_n as usize);
            slot.inn.reserve(in_n as usize);
        }
    }

    /// Serialize one vertex record into the checkpoint page buffer.
    fn encode_slot(&self, ix: u32, buf: &mut Vec<u8>) {
        let slot = &self.slots[ix as usize];
        buf.extend_from_slice(&slot.vid.raw().to_le_bytes());
        for (k, v) in slot.props.iter() {
            buf.push(k as u8);
            encode_value(v, buf);
        }
        buf.extend_from_slice(&(slot.out.len() as u32).to_le_bytes());
        for e in &slot.out {
            buf.push(e.label as u8);
            buf.extend_from_slice(&e.other.to_le_bytes());
        }
    }
}

fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) | Value::Date(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Vertex(vid) => {
            buf.push(5);
            buf.extend_from_slice(&vid.raw().to_le_bytes());
        }
        Value::List(vs) => {
            buf.push(6);
            buf.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                encode_value(v, buf);
            }
        }
    }
}

/// Fold the CSR epoch after this many writes even if no reader asks.
const FOLD_EVERY: usize = 4096;
/// Minimum gap between compactor folds, so a nudge storm during a
/// mixed read/write phase cannot pin the core folding stale epochs
/// back to back.
const FOLD_PACE: Duration = Duration::from_millis(1);
/// Ceiling for the adaptive pace: while every fold arrives already
/// stale (a sustained write burst), the compactor doubles its pace up
/// to this bound instead of rebuilding a doomed CSR back to back —
/// on a single core that churn taxed the write path ~4x.
const FOLD_PACE_MAX: Duration = Duration::from_millis(256);

/// Compactor wake-up state, guarded by `Shared::fold_state`.
struct FoldState {
    nudged: bool,
    shutdown: bool,
}

/// State shared between the store handle and its compactor thread.
pub(crate) struct Shared {
    pub(crate) inner: RwLock<Inner>,
    /// Write sequence number; advanced under the `inner` write lock on
    /// every applied write. A CSR snapshot is fresh iff its epoch
    /// equals this counter.
    write_seq: AtomicU64,
    csr: EpochCell,
    fold_state: Mutex<FoldState>,
    fold_cv: Condvar,
    /// Signalled (under `fold_state`) after every completed fold, so a
    /// thread waiting for a fresh epoch rendezvouses with the compactor
    /// instead of sleep-polling `pin_snapshot`.
    fold_done_cv: Condvar,
    /// Serializes whole folds (compactor vs `compact_now`), so epochs
    /// are published in nondecreasing order.
    fold_gate: Mutex<()>,
    folds_taken: AtomicU64,
    /// Read-lock sessions taken against `inner` by folds (one per dirty
    /// batch). Observable via [`NativeGraphStore::fold_lock_sessions`];
    /// the compactor-de-risk regression test asserts a large dirty set
    /// is copied across many short sessions, not one long one.
    fold_lock_sessions: AtomicU64,
    /// Whole-query planner toggle (`true` by default); off = every
    /// query runs through the reference interpreter, which the
    /// plan-equivalence harnesses diff against.
    planner: AtomicBool,
    /// Cypher plan cache, keyed by query text. Bounded; a full cache is
    /// cleared wholesale (plans are cheap to rebuild and the workload
    /// reuses a handful of templates).
    plans: RwLock<FastMap<String, Arc<crate::cypher::plan::PlanEntry>>>,
}

/// Plan-cache capacity (distinct query texts).
const PLAN_CACHE_CAP: usize = 256;

impl Shared {
    /// Wake the compactor (a reader saw a stale epoch, or the write
    /// path crossed the fold threshold).
    fn nudge(&self) {
        let mut st = self.fold_state.lock();
        st.nudged = true;
        drop(st);
        self.fold_cv.notify_all();
    }
}

/// Cap on dirty/new rows copied out of the live store per `inner` read
/// lock session during a fold. Clean rows are replayed from the old
/// (immutable) snapshot with no lock at all, so this bounds the longest
/// stretch a fold can hold readers' lock shares away from a writer: a
/// million-row initial build takes ~n/FOLD_DIRTY_BATCH short sessions
/// instead of one multi-second one that would stall the write path.
const FOLD_DIRTY_BATCH: usize = 16_384;

/// Rebuild the published CSR snapshot from the previous epoch plus the
/// accumulated dirty set. Runs on the compactor thread (or inline via
/// `compact_now`), never on the write path: writers only pay for the
/// brief dirty-set steal.
///
/// Writes that land between the steal and the row copy make the result
/// stale on arrival (its epoch is below the advanced `write_seq`), and
/// `pin_snapshot`'s freshness check then refuses to serve it — so a
/// torn fold is unobservable, it just costs one more fold later.
fn fold_csr(shared: &Shared) {
    fold_csr_batched(shared, FOLD_DIRTY_BATCH)
}

/// `fold_csr` with an explicit dirty-batch cap (exposed so tests can
/// force many lock sessions on small stores).
fn fold_csr_batched(shared: &Shared, dirty_batch: usize) {
    let dirty_batch = dirty_batch.max(1);
    let _gate = shared.fold_gate.lock();
    let seq_now = shared.write_seq.load(Ordering::Acquire);
    if shared.csr.epoch() == Some(seq_now) {
        return;
    }
    // Steal the dirty set and stamp the epoch under the write lock:
    // `seq` cannot move while we hold it, so the snapshot we build is
    // exact for epoch `seq` *unless* later writes race the copy below —
    // in which case `seq` has advanced past our epoch and the result is
    // never served.
    let (dirty, n, seq) = {
        let mut inner = shared.inner.write();
        let d = std::mem::take(&mut inner.csr_dirty);
        inner.csr_writes_since_fold = 0;
        (d, inner.slots.len(), shared.write_seq.load(Ordering::Acquire))
    };
    let old = shared.csr.load();
    let old_n = old.as_ref().map_or(0, |o| o.n_rows());
    let mut dirty_set: FastSet<u32> = FastSet::default();
    dirty_set.extend(dirty.iter().copied().filter(|&r| (r as usize) < old_n));
    match build_fold(shared, old.as_deref(), &dirty_set, n, old_n, seq, dirty_batch) {
        Ok(snap) => {
            shared.csr.store(Arc::new(snap));
            shared.folds_taken.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            // Id/offset space exhausted: never publish a truncated CSR.
            // The previous snapshot stays up (stale); writes themselves
            // hit the checked-insert error long before this can trigger.
            eprintln!("csr fold abandoned: {e}");
        }
    }
    // Publish-then-notify under the state lock: a waiter that checked
    // the epoch while holding it either saw the fresh snapshot or is
    // already parked on the condvar, so the wakeup cannot be lost.
    let _st = shared.fold_state.lock();
    shared.fold_done_cv.notify_all();
}

/// Copy rows `0..n` into a fresh builder. Maximal runs of clean rows
/// (present and unmodified in `old`) are bulk-replayed from the old
/// snapshot — which is immutable, so no lock is held for them; dirty
/// and new rows are read from the live store in batches of at most
/// `dirty_batch` rows, each batch under its own short `inner` read
/// lock session.
fn build_fold(
    shared: &Shared,
    old: Option<&CsrSnapshot>,
    dirty_set: &FastSet<u32>,
    n: usize,
    old_n: usize,
    seq: u64,
    dirty_batch: usize,
) -> snb_core::Result<CsrSnapshot> {
    let clean = |row: usize| (row < old_n) && !dirty_set.contains(&(row as u32));
    let mut b = CsrBuilder::new(seq, n, true);
    let mut row = 0usize;
    while row < n {
        if clean(row) {
            let mut end = row + 1;
            while end < n && clean(end) {
                end += 1;
            }
            // Unchanged since the previous epoch: replay the whole run
            // out of the old CSR (Arc clones + slice copies, no lock —
            // the old snapshot cannot change under us).
            b.extend_rows_from(old.unwrap(), row..end)?;
            row = end;
        } else {
            let inner = shared.inner.read();
            shared.fold_lock_sessions.fetch_add(1, Ordering::Relaxed);
            let mut copied = 0usize;
            while row < n && copied < dirty_batch && !clean(row) {
                // Dirty or new: read the live slot. Entries pointing at
                // slots beyond `n` were added after the steal (edges
                // reference only already-inserted slots), skip them.
                let slot = inner.slot(row as u32);
                b.push_row(slot.vid, Arc::new(slot.props.clone()))?;
                for e in &slot.out {
                    if (e.other as usize) < n {
                        b.push_out(e.label, e.other, e.props.as_ref().map(|p| Arc::new((**p).clone())));
                    }
                }
                for e in &slot.inn {
                    if (e.other as usize) < n {
                        b.push_in(e.label, e.other);
                    }
                }
                row += 1;
                copied += 1;
            }
        }
    }
    b.finish()
}

/// Compactor thread: wait for a nudge, fold, pace, repeat.
fn compactor_loop(shared: Arc<Shared>) {
    let mut last_fold: Option<Instant> = None;
    let mut pace = FOLD_PACE;
    let mut st = shared.fold_state.lock();
    loop {
        if st.shutdown {
            return;
        }
        if !st.nudged {
            shared.fold_cv.wait(&mut st);
            continue;
        }
        if let Some(t) = last_fold {
            let since = t.elapsed();
            if since < pace {
                shared.fold_cv.wait_for(&mut st, pace - since);
                continue;
            }
        }
        st.nudged = false;
        drop(st);
        fold_csr(&shared);
        // Adaptive pacing: a fold that is stale on arrival (writes kept
        // landing during the rebuild) was wasted work, and a write
        // burst would make every fold wasted — back off until a fold
        // lands fresh, then snap back to the eager pace.
        let fresh = shared.csr.epoch() == Some(shared.write_seq.load(Ordering::Acquire));
        pace = if fresh { FOLD_PACE } else { (pace * 2).min(FOLD_PACE_MAX) };
        last_fold = Some(Instant::now());
        st = shared.fold_state.lock();
    }
}

/// The native graph store. Cheap to share behind `Arc`; all methods
/// take `&self`.
pub struct NativeGraphStore {
    pub(crate) shared: Arc<Shared>,
    checkpoint: CheckpointConfig,
    /// Last checkpoint image. Written outside the `inner` write lock so
    /// serialization never blocks readers; its own mutex only excludes
    /// concurrent checkpointers.
    checkpoint_pages: Mutex<Vec<u8>>,
    checkpoints_taken: AtomicU64,
    compactor: Option<std::thread::JoinHandle<()>>,
}

impl NativeGraphStore {
    /// Empty store with default checkpointing.
    pub fn new() -> Self {
        Self::with_checkpoint(CheckpointConfig::default())
    }

    /// Empty store with explicit checkpoint behaviour.
    pub fn with_checkpoint(checkpoint: CheckpointConfig) -> Self {
        let shared = Arc::new(Shared {
            inner: RwLock::new(Inner {
                slots: Vec::new(),
                index: FastMap::default(),
                direct: Default::default(),
                by_label: Default::default(),
                edge_count: 0,
                dirty: Vec::new(),
                writes_since_checkpoint: 0,
                csr_dirty: Vec::new(),
                csr_writes_since_fold: 0,
            }),
            write_seq: AtomicU64::new(0),
            csr: EpochCell::new(),
            fold_state: Mutex::new(FoldState { nudged: false, shutdown: false }),
            fold_cv: Condvar::new(),
            fold_done_cv: Condvar::new(),
            fold_gate: Mutex::new(()),
            folds_taken: AtomicU64::new(0),
            fold_lock_sessions: AtomicU64::new(0),
            planner: AtomicBool::new(true),
            plans: RwLock::new(FastMap::default()),
        });
        let compactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("csr-compactor".into())
                .spawn(move || compactor_loop(shared))
                .ok()
        };
        NativeGraphStore {
            shared,
            checkpoint,
            checkpoint_pages: Mutex::new(Vec::new()),
            checkpoints_taken: AtomicU64::new(0),
            compactor,
        }
    }

    /// The `inner` lock (crate-internal read path).
    #[inline]
    pub(crate) fn inner(&self) -> &RwLock<Inner> {
        &self.shared.inner
    }

    /// Enable/disable the whole-query planner (enabled by default).
    /// With the planner off every Cypher query parses and executes
    /// through the reference interpreter — the baseline the
    /// plan-equivalence tests diff against.
    pub fn set_planner_enabled(&self, on: bool) {
        self.shared.planner.store(on, Ordering::Relaxed);
    }

    /// Whether the whole-query planner is active.
    pub fn planner_enabled(&self) -> bool {
        self.shared.planner.load(Ordering::Relaxed)
    }

    /// Cached plan for `query`, building (and caching) it on miss.
    pub(crate) fn plan_for(
        &self,
        query: &str,
        parse: impl FnOnce() -> Result<crate::cypher::ast::Statement>,
    ) -> Result<Arc<crate::cypher::plan::PlanEntry>> {
        if let Some(entry) = self.shared.plans.read().get(query) {
            return Ok(Arc::clone(entry));
        }
        let entry = crate::cypher::plan::build_entry(self, parse()?);
        let mut plans = self.shared.plans.write();
        if plans.len() >= PLAN_CACHE_CAP {
            plans.clear();
        }
        plans.insert(query.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Number of checkpoints the write path has executed.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken.load(Ordering::Relaxed)
    }

    /// Number of CSR folds the compactor has completed.
    pub fn csr_folds_taken(&self) -> u64 {
        self.shared.folds_taken.load(Ordering::Relaxed)
    }

    /// Current write sequence number (the epoch a fresh snapshot must
    /// carry).
    pub fn write_seq(&self) -> u64 {
        self.shared.write_seq.load(Ordering::Acquire)
    }

    /// Number of `inner` read-lock sessions folds have taken (one per
    /// dirty-row batch; clean rows are replayed lock-free from the old
    /// snapshot).
    pub fn fold_lock_sessions(&self) -> u64 {
        self.shared.fold_lock_sessions.load(Ordering::Relaxed)
    }

    /// Fold a CSR snapshot synchronously on the calling thread. Tests
    /// and benches use this to reach a fresh epoch deterministically
    /// instead of waiting for the compactor.
    pub fn compact_now(&self) {
        fold_csr(&self.shared);
    }

    /// `compact_now` with an explicit dirty-batch cap; lets tests force
    /// the chunked-fold path on stores far smaller than
    /// `FOLD_DIRTY_BATCH`.
    pub fn compact_now_batched(&self, dirty_batch: usize) {
        fold_csr_batched(&self.shared, dirty_batch);
    }

    /// Block until the *background* compactor publishes a snapshot
    /// whose epoch matches the current write sequence, or the timeout
    /// elapses. Pure condvar rendezvous — no sleep-polling — so tests
    /// that wait on an epoch flip are deterministic under load. Returns
    /// `None` on timeout (e.g. a concurrent writer keeps advancing the
    /// sequence faster than folds land).
    pub fn wait_for_fresh_snapshot(&self, timeout: Duration) -> Option<Arc<CsrSnapshot>> {
        let deadline = Instant::now() + timeout;
        loop {
            // `pin_snapshot` nudges the compactor when stale.
            if let Some(s) = self.pin_snapshot() {
                return Some(s);
            }
            let mut st = self.shared.fold_state.lock();
            // Re-check under the lock: a fold that completed between the
            // pin above and here already notified, and we'd miss it.
            let seq = self.shared.write_seq.load(Ordering::Acquire);
            if self.shared.csr.epoch() == Some(seq) {
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.shared.fold_done_cv.wait_for(&mut st, deadline - now);
        }
    }

    /// Size of the last checkpoint image, in bytes.
    pub fn checkpoint_image_bytes(&self) -> usize {
        self.checkpoint_pages.lock().len()
    }

    /// Record a dirty vertex and, every `every_writes` writes, run a
    /// checkpoint. The write counter lives in `Inner`, so threshold
    /// detection and the dirty-set swap are one atomic step — two
    /// writers can no longer double-fire or skip a checkpoint. The
    /// guard is consumed: serialization runs *after* the critical
    /// section, under a read lock only.
    fn finish_write(&self, mut inner: RwLockWriteGuard<'_, Inner>, touched: u32) {
        inner.dirty.push(touched);
        self.roll_checkpoint(inner, 1);
    }

    /// Fold `writes` completed write ops into the write-sequence,
    /// CSR-fold, and checkpoint counters (dirty slots already recorded
    /// by the caller) and run at most one checkpoint. Batched writers
    /// call this once per batch, so a batch pays a single counter fold
    /// and a single threshold check instead of one per op.
    fn roll_checkpoint(&self, mut inner: RwLockWriteGuard<'_, Inner>, writes: usize) {
        if writes == 0 {
            return;
        }
        // Advance the epoch under the write lock: a concurrent fold
        // that already stamped its epoch is now stale on arrival.
        self.shared.write_seq.fetch_add(writes as u64, Ordering::Release);
        inner.csr_writes_since_fold += writes;
        let nudge_fold = inner.csr_writes_since_fold >= FOLD_EVERY;
        if nudge_fold {
            inner.csr_writes_since_fold = 0;
        }
        let mut dirty = Vec::new();
        let mut run_ckpt = false;
        if self.checkpoint.every_writes != 0 {
            inner.writes_since_checkpoint += writes;
            if inner.writes_since_checkpoint >= self.checkpoint.every_writes {
                inner.writes_since_checkpoint = 0;
                dirty = std::mem::take(&mut inner.dirty);
                run_ckpt = true;
            }
        }
        drop(inner);
        if nudge_fold {
            self.shared.nudge();
        }
        if run_ckpt {
            self.run_checkpoint(&dirty);
        }
    }

    /// Fuzzy checkpoint: encode the dirty records under a read lock
    /// (concurrent readers unaffected, concurrent writers only contend
    /// with the read lock), then model the device flush as a pause on
    /// the checkpointing thread alone.
    fn run_checkpoint(&self, dirty: &[u32]) {
        let mut pages = Vec::with_capacity(dirty.len() * 64);
        {
            let inner = self.shared.inner.read();
            for &ix in dirty {
                inner.encode_slot(ix, &mut pages);
            }
        }
        if !self.checkpoint.stall.is_zero() {
            std::thread::sleep(self.checkpoint.stall);
        }
        *self.checkpoint_pages.lock() = pages;
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for NativeGraphStore {
    fn drop(&mut self) {
        {
            let mut st = self.shared.fold_state.lock();
            st.shutdown = true;
        }
        self.shared.fold_cv.notify_all();
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
    }
}

impl Default for NativeGraphStore {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBackend for NativeGraphStore {
    fn name(&self) -> &'static str {
        "native-graph"
    }

    fn add_vertex(&self, label: VertexLabel, local_id: u64, props: &[(PropKey, Value)]) -> Result<Vid> {
        let mut inner = self.shared.inner.write();
        let ix = inner.insert_vertex(label, local_id, props)?;
        self.finish_write(inner, ix);
        Ok(Vid::new(label, local_id))
    }

    fn add_edge(&self, label: EdgeLabel, src: Vid, dst: Vid, props: &[(PropKey, Value)]) -> Result<()> {
        edge_def(src.label(), label, dst.label())?;
        let mut inner = self.shared.inner.write();
        let s = inner.insert_edge(label, src, dst, props)?;
        self.finish_write(inner, s);
        Ok(())
    }

    fn apply_batch(&self, ops: &[GraphWrite]) -> Result<usize> {
        if ops.is_empty() {
            return Ok(0);
        }
        // Pre-pass outside the lock: schema-check every edge and count,
        // per endpoint, the adjacency entries this batch will add, so
        // hot vertices grow their lists once instead of per edge.
        let mut vertices = 0usize;
        let mut adj: FastMap<Vid, (u32, u32)> = FastMap::default();
        for op in ops {
            match op {
                GraphWrite::AddVertex { .. } => vertices += 1,
                GraphWrite::AddEdge { label, src, dst, .. } => {
                    edge_def(src.label(), *label, dst.label())?;
                    adj.entry(*src).or_insert((0, 0)).0 += 1;
                    adj.entry(*dst).or_insert((0, 0)).1 += 1;
                }
            }
        }
        let mut inner = self.shared.inner.write();
        inner.slots.reserve(vertices);
        inner.dirty.reserve(ops.len());
        let mut applied = 0usize;
        let mut err = None;
        for op in ops {
            let touched = match op {
                GraphWrite::AddVertex { label, local_id, props } => {
                    inner.insert_vertex(*label, *local_id, props)
                }
                GraphWrite::AddEdge { label, src, dst, props } => {
                    // The first edge touching an endpoint reserves the
                    // whole batch's adjacency growth for it.
                    if let Some((o, i)) = adj.remove(src) {
                        inner.reserve_adj(*src, o, i);
                    }
                    if let Some((o, i)) = adj.remove(dst) {
                        inner.reserve_adj(*dst, o, i);
                    }
                    inner.insert_edge(*label, *src, *dst, props)
                }
            };
            match touched {
                Ok(ix) => {
                    inner.dirty.push(ix);
                    applied += 1;
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        // One checkpoint-counter fold for the whole batch (the applied
        // prefix, if a write failed).
        self.roll_checkpoint(inner, applied);
        match err {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    fn vertex_exists(&self, v: Vid) -> bool {
        self.shared.inner.read().slot_ix(v).is_some()
    }

    fn vertex_prop(&self, v: Vid, key: PropKey) -> Result<Option<Value>> {
        let inner = self.shared.inner.read();
        let ix = inner.slot_ix(v).ok_or_else(|| SnbError::NotFound(format!("vertex {v}")))?;
        Ok(inner.slot(ix).props.get(key).cloned())
    }

    fn vertex_props(&self, v: Vid) -> Result<Vec<(PropKey, Value)>> {
        let inner = self.shared.inner.read();
        let ix = inner.slot_ix(v).ok_or_else(|| SnbError::NotFound(format!("vertex {v}")))?;
        Ok(inner.slot(ix).props.to_pairs())
    }

    fn set_vertex_prop(&self, v: Vid, key: PropKey, value: Value) -> Result<()> {
        let mut inner = self.shared.inner.write();
        let ix = inner.slot_ix(v).ok_or_else(|| SnbError::NotFound(format!("vertex {v}")))?;
        inner.slots[ix as usize].props.set(key, value);
        inner.csr_dirty.push(ix);
        self.finish_write(inner, ix);
        Ok(())
    }

    fn neighbors(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>, out: &mut Vec<Vid>) -> Result<()> {
        let inner = self.shared.inner.read();
        let ix = inner.slot_ix(v).ok_or_else(|| SnbError::NotFound(format!("vertex {v}")))?;
        for e in inner.adj(ix, dir, label) {
            out.push(inner.slot(e.other).vid);
        }
        Ok(())
    }

    fn edge_prop(&self, src: Vid, label: EdgeLabel, dst: Vid, key: PropKey) -> Result<Option<Value>> {
        let inner = self.shared.inner.read();
        let s = inner.slot_ix(src).ok_or_else(|| SnbError::NotFound(format!("vertex {src}")))?;
        let d = inner.slot_ix(dst).ok_or_else(|| SnbError::NotFound(format!("vertex {dst}")))?;
        for e in inner.adj(s, Direction::Out, Some(label)) {
            if e.other == d {
                return Ok(e.props.as_ref().and_then(|p| p.get(key).cloned()));
            }
        }
        Err(SnbError::NotFound(format!("edge {src}-[:{label}]->{dst}")))
    }

    fn edge_exists(&self, src: Vid, label: EdgeLabel, dst: Vid) -> Result<bool> {
        let inner = self.shared.inner.read();
        let (s, d) = match (inner.slot_ix(src), inner.slot_ix(dst)) {
            (Some(s), Some(d)) => (s, d),
            _ => return Ok(false),
        };
        let exists = inner.adj(s, Direction::Out, Some(label)).any(|e| e.other == d);
        Ok(exists)
    }

    fn vertices_by_label(&self, label: VertexLabel) -> Result<Vec<Vid>> {
        let inner = self.shared.inner.read();
        Ok(inner.by_label[label as usize].iter().map(|&ix| inner.slot(ix).vid).collect())
    }

    fn vertex_count(&self) -> usize {
        self.shared.inner.read().slots.len()
    }

    fn edge_count(&self) -> usize {
        self.shared.inner.read().edge_count
    }

    fn storage_bytes(&self) -> usize {
        let inner = self.shared.inner.read();
        let mut bytes = inner.slots.capacity() * std::mem::size_of::<VertexSlot>()
            + inner.index.len() * (std::mem::size_of::<Vid>() + 12)
            + inner.direct.iter().map(|d| d.capacity() * 4).sum::<usize>();
        for slot in &inner.slots {
            bytes += slot.props.heap_bytes();
            bytes += (slot.out.capacity() + slot.inn.capacity()) * std::mem::size_of::<AdjEntry>();
            for e in &slot.out {
                if let Some(p) = &e.props {
                    bytes += p.heap_bytes();
                }
            }
        }
        bytes
    }

    fn degree(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>) -> Result<usize> {
        let inner = self.shared.inner.read();
        let ix = inner.slot_ix(v).ok_or_else(|| SnbError::NotFound(format!("vertex {v}")))?;
        Ok(inner.adj(ix, dir, label).count())
    }

    /// Serve the published CSR epoch when it is exact for the current
    /// write sequence; otherwise nudge the compactor and make the
    /// caller use the live (locked) path — preserving read-your-writes.
    fn pin_snapshot(&self) -> Option<Arc<CsrSnapshot>> {
        let snap = self.shared.csr.load();
        let seq = self.shared.write_seq.load(Ordering::Acquire);
        match snap {
            Some(s) if s.epoch() == seq => Some(s),
            _ => {
                self.shared.nudge();
                None
            }
        }
    }

    /// The write sequence doubles as the result-cache epoch: every
    /// mutation bumps it under the write lock before returning, which
    /// is exactly the contract epoch-keyed caching needs.
    fn cache_epoch(&self) -> Option<u64> {
        Some(self.write_seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person(store: &NativeGraphStore, id: u64) -> Vid {
        store
            .add_vertex(VertexLabel::Person, id, &[(PropKey::FirstName, Value::str("p"))])
            .unwrap()
    }

    #[test]
    fn add_and_lookup_vertex() {
        let s = NativeGraphStore::new();
        let v = person(&s, 1);
        assert!(s.vertex_exists(v));
        assert_eq!(s.vertex_prop(v, PropKey::FirstName).unwrap(), Some(Value::str("p")));
        assert_eq!(s.vertex_prop(v, PropKey::Id).unwrap(), Some(Value::Int(1)));
        assert!(matches!(
            s.add_vertex(VertexLabel::Person, 1, &[]),
            Err(SnbError::Conflict(_))
        ));
    }

    #[test]
    fn adjacency_both_directions() {
        let s = NativeGraphStore::new();
        let a = person(&s, 1);
        let b = person(&s, 2);
        let c = person(&s, 3);
        s.add_edge(EdgeLabel::Knows, a, b, &[(PropKey::CreationDate, Value::Date(7))]).unwrap();
        s.add_edge(EdgeLabel::Knows, c, a, &[]).unwrap();
        let mut out = Vec::new();
        s.neighbors(a, Direction::Out, Some(EdgeLabel::Knows), &mut out).unwrap();
        assert_eq!(out, vec![b]);
        out.clear();
        s.neighbors(a, Direction::In, Some(EdgeLabel::Knows), &mut out).unwrap();
        assert_eq!(out, vec![c]);
        out.clear();
        s.neighbors(a, Direction::Both, None, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(s.degree(a, Direction::Both, Some(EdgeLabel::Knows)).unwrap(), 2);
        assert_eq!(s.edge_count(), 2);
    }

    #[test]
    fn edge_props_live_on_out_side() {
        let s = NativeGraphStore::new();
        let a = person(&s, 1);
        let b = person(&s, 2);
        s.add_edge(EdgeLabel::Knows, a, b, &[(PropKey::CreationDate, Value::Date(9))]).unwrap();
        assert_eq!(
            s.edge_prop(a, EdgeLabel::Knows, b, PropKey::CreationDate).unwrap(),
            Some(Value::Date(9))
        );
        assert!(s.edge_prop(b, EdgeLabel::Knows, a, PropKey::CreationDate).is_err());
        assert!(s.edge_exists(a, EdgeLabel::Knows, b).unwrap());
        assert!(!s.edge_exists(b, EdgeLabel::Knows, a).unwrap());
    }

    #[test]
    fn schema_violations_rejected() {
        let s = NativeGraphStore::new();
        let a = person(&s, 1);
        let t = s.add_vertex(VertexLabel::Tag, 1, &[]).unwrap();
        assert!(matches!(s.add_edge(EdgeLabel::Knows, a, t, &[]), Err(SnbError::Plan(_))));
        let missing = Vid::new(VertexLabel::Person, 99);
        assert!(matches!(
            s.add_edge(EdgeLabel::Knows, a, missing, &[]),
            Err(SnbError::NotFound(_))
        ));
    }

    #[test]
    fn label_scan_and_counts() {
        let s = NativeGraphStore::new();
        person(&s, 1);
        person(&s, 2);
        s.add_vertex(VertexLabel::Tag, 1, &[]).unwrap();
        assert_eq!(s.vertices_by_label(VertexLabel::Person).unwrap().len(), 2);
        assert_eq!(s.vertices_by_label(VertexLabel::Forum).unwrap().len(), 0);
        assert_eq!(s.vertex_count(), 3);
        assert!(s.storage_bytes() > 0);
    }

    #[test]
    fn set_vertex_prop_overwrites() {
        let s = NativeGraphStore::new();
        let v = person(&s, 1);
        s.set_vertex_prop(v, PropKey::FirstName, Value::str("q")).unwrap();
        assert_eq!(s.vertex_prop(v, PropKey::FirstName).unwrap(), Some(Value::str("q")));
        let missing = Vid::new(VertexLabel::Person, 9);
        assert!(s.set_vertex_prop(missing, PropKey::FirstName, Value::Null).is_err());
    }

    #[test]
    fn checkpoints_fire_by_write_count() {
        let s = NativeGraphStore::with_checkpoint(CheckpointConfig {
            every_writes: 10,
            stall: Duration::ZERO,
        });
        for i in 0..25 {
            person(&s, i);
        }
        assert_eq!(s.checkpoints_taken(), 2);
        assert!(s.checkpoint_image_bytes() > 0, "checkpoint image captured");
        let s2 = NativeGraphStore::with_checkpoint(CheckpointConfig {
            every_writes: 0,
            stall: Duration::ZERO,
        });
        for i in 0..25 {
            person(&s2, i);
        }
        assert_eq!(s2.checkpoints_taken(), 0);
    }

    #[test]
    fn apply_batch_matches_one_by_one_application() {
        let batch_writes = vec![
            GraphWrite::AddVertex { label: VertexLabel::Person, local_id: 1, props: vec![(PropKey::FirstName, Value::str("a"))] },
            GraphWrite::AddVertex { label: VertexLabel::Person, local_id: 2, props: vec![] },
            GraphWrite::AddEdge {
                label: EdgeLabel::Knows,
                src: Vid::new(VertexLabel::Person, 1),
                dst: Vid::new(VertexLabel::Person, 2),
                props: vec![(PropKey::CreationDate, Value::Date(7))],
            },
        ];
        let batched = NativeGraphStore::new();
        assert_eq!(batched.apply_batch(&batch_writes).unwrap(), 3);
        let serial = NativeGraphStore::new();
        for w in &batch_writes {
            serial.apply_batch(std::slice::from_ref(w)).unwrap();
        }
        for s in [&batched, &serial] {
            assert_eq!(s.vertex_count(), 2);
            assert_eq!(s.edge_count(), 1);
            let (a, b) = (Vid::new(VertexLabel::Person, 1), Vid::new(VertexLabel::Person, 2));
            assert_eq!(s.vertex_prop(a, PropKey::FirstName).unwrap(), Some(Value::str("a")));
            assert_eq!(
                s.edge_prop(a, EdgeLabel::Knows, b, PropKey::CreationDate).unwrap(),
                Some(Value::Date(7))
            );
        }
    }

    #[test]
    fn apply_batch_stops_at_first_error_keeping_prefix() {
        let s = NativeGraphStore::new();
        let writes = vec![
            GraphWrite::AddVertex { label: VertexLabel::Person, local_id: 1, props: vec![] },
            GraphWrite::AddEdge {
                label: EdgeLabel::Knows,
                src: Vid::new(VertexLabel::Person, 1),
                dst: Vid::new(VertexLabel::Person, 99), // missing
                props: vec![],
            },
            GraphWrite::AddVertex { label: VertexLabel::Person, local_id: 2, props: vec![] },
        ];
        assert!(matches!(s.apply_batch(&writes), Err(SnbError::NotFound(_))));
        assert!(s.vertex_exists(Vid::new(VertexLabel::Person, 1)), "prefix applied");
        assert!(!s.vertex_exists(Vid::new(VertexLabel::Person, 2)), "suffix not applied");
        // A schema violation is caught in the pre-pass, before anything
        // is applied at all.
        let bad_schema = vec![
            GraphWrite::AddVertex { label: VertexLabel::Person, local_id: 5, props: vec![] },
            GraphWrite::AddEdge {
                label: EdgeLabel::Knows,
                src: Vid::new(VertexLabel::Person, 1),
                dst: Vid::new(VertexLabel::Tag, 1),
                props: vec![],
            },
        ];
        assert!(matches!(s.apply_batch(&bad_schema), Err(SnbError::Plan(_))));
        assert!(!s.vertex_exists(Vid::new(VertexLabel::Person, 5)));
    }

    #[test]
    fn apply_batch_folds_checkpoint_counter_once() {
        let s = NativeGraphStore::with_checkpoint(CheckpointConfig {
            every_writes: 10,
            stall: Duration::ZERO,
        });
        let writes: Vec<GraphWrite> = (0..25)
            .map(|i| GraphWrite::AddVertex { label: VertexLabel::Person, local_id: i, props: vec![] })
            .collect();
        // 25 writes cross the threshold in one fold: exactly one
        // checkpoint fires for the batch (vs 2 when applied one by one).
        assert_eq!(s.apply_batch(&writes).unwrap(), 25);
        assert_eq!(s.checkpoints_taken(), 1);
        // The counter reset still schedules future checkpoints.
        for i in 25..35 {
            person(&s, i);
        }
        assert_eq!(s.checkpoints_taken(), 2);
    }

    #[test]
    fn sparse_local_ids_fall_back_to_hash_index() {
        let s = NativeGraphStore::new();
        let dense = person(&s, 3);
        let sparse = person(&s, DIRECT_LIMIT + 12345);
        assert!(s.vertex_exists(dense));
        assert!(s.vertex_exists(sparse));
        assert!(!s.vertex_exists(Vid::new(VertexLabel::Person, 4)));
        assert!(!s.vertex_exists(Vid::new(VertexLabel::Person, DIRECT_LIMIT + 1)));
        s.add_edge(EdgeLabel::Knows, dense, sparse, &[]).unwrap();
        let mut out = Vec::new();
        s.neighbors(sparse, Direction::In, None, &mut out).unwrap();
        assert_eq!(out, vec![dense]);
    }

    #[test]
    fn csr_snapshot_freshness_and_equivalence() {
        let s = NativeGraphStore::new();
        let a = person(&s, 1);
        let b = person(&s, 2);
        let c = person(&s, 3);
        s.add_edge(EdgeLabel::Knows, a, b, &[(PropKey::CreationDate, Value::Date(7))]).unwrap();
        s.add_edge(EdgeLabel::Knows, c, a, &[]).unwrap();
        s.compact_now();
        let snap = s.pin_snapshot().expect("fresh after compact_now");
        assert_eq!(snap.epoch(), s.write_seq());
        assert_eq!(snap.n_rows(), 3);
        assert_eq!(snap.edge_count(), 2);
        // Rows are slot-aligned: compare the snapshot against the live
        // adjacency view entry by entry.
        let ra = snap.row_of(a).unwrap();
        let mut rows = Vec::new();
        snap.neighbors_into(ra, Direction::Both, Some(EdgeLabel::Knows), &mut rows);
        let mut live = Vec::new();
        s.neighbors(a, Direction::Both, Some(EdgeLabel::Knows), &mut live).unwrap();
        let via_snap: Vec<Vid> = rows.iter().map(|&r| snap.vid_of(r)).collect();
        assert_eq!(via_snap, live);
        assert_eq!(snap.prop(ra, PropKey::FirstName), Some(Value::str("p")));
        let rb = snap.row_of(b).unwrap();
        let ep = snap.out_edge_props(ra, EdgeLabel::Knows, rb).unwrap().unwrap();
        assert_eq!(ep.get(PropKey::CreationDate), Some(&Value::Date(7)));

        // A write advances the epoch: the published snapshot is stale
        // and must not be served (read-your-writes).
        person(&s, 4);
        assert!(s.pin_snapshot().is_none(), "stale epoch must not be served");

        // The next fold reuses unchanged rows and picks up the delta.
        let folds_before = s.csr_folds_taken();
        s.add_edge(EdgeLabel::Knows, b, c, &[]).unwrap();
        s.compact_now();
        let snap2 = s.pin_snapshot().expect("fresh after second fold");
        assert!(s.csr_folds_taken() > folds_before);
        assert_eq!(snap2.n_rows(), 4);
        assert_eq!(snap2.edge_count(), 3);
        let rb2 = snap2.row_of(b).unwrap();
        assert_eq!(
            snap2.range(rb2, Direction::Out, EdgeLabel::Knows),
            &[snap2.row_of(c).unwrap()]
        );
        // Reused row: a's adjacency and props survived the fold intact.
        let ra2 = snap2.row_of(a).unwrap();
        assert_eq!(snap2.degree(ra2, Direction::Both, Some(EdgeLabel::Knows)), 2);
        assert_eq!(snap2.prop(ra2, PropKey::FirstName), Some(Value::str("p")));
    }

    #[test]
    fn background_compactor_flips_epoch_via_rendezvous() {
        // The epoch-flip wait is a condvar rendezvous with the
        // compactor thread, not a sleep-poll: the test is deterministic
        // however slowly the background thread is scheduled.
        let s = NativeGraphStore::new();
        let a = person(&s, 1);
        let b = person(&s, 2);
        s.add_edge(EdgeLabel::Knows, a, b, &[]).unwrap();
        let snap = s
            .wait_for_fresh_snapshot(Duration::from_secs(10))
            .expect("compactor publishes the current epoch");
        assert_eq!(snap.epoch(), s.write_seq());
        assert_eq!(snap.n_rows(), 2);
        // A second flip after more writes: the stale epoch is refused,
        // then the rendezvous observes the new one.
        person(&s, 3);
        assert!(s.pin_snapshot().is_none(), "stale after the write");
        let snap2 = s
            .wait_for_fresh_snapshot(Duration::from_secs(10))
            .expect("compactor catches up to the new epoch");
        assert!(snap2.epoch() > snap.epoch());
        assert_eq!(snap2.n_rows(), 3);
    }

    #[test]
    fn concurrent_readers_and_writer_smoke() {
        // N readers + 1 writer, with checkpoints firing often enough to
        // exercise the out-of-lock path. Asserts no deadlock (the test
        // finishes) and that final counts are consistent.
        let s = NativeGraphStore::with_checkpoint(CheckpointConfig {
            every_writes: 64,
            stall: Duration::from_micros(200),
        });
        let a = person(&s, 0);
        const WRITES: u64 = 2_000;
        std::thread::scope(|scope| {
            let store = &s;
            scope.spawn(move || {
                for i in 1..=WRITES {
                    store.add_vertex(VertexLabel::Person, i, &[]).unwrap();
                    store
                        .add_edge(EdgeLabel::Knows, a, Vid::new(VertexLabel::Person, i), &[])
                        .unwrap();
                }
            });
            for r in 0..4 {
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    for i in 0..WRITES {
                        let v = Vid::new(VertexLabel::Person, (i + r) % WRITES);
                        if store.vertex_exists(v) {
                            let _ = store.vertex_prop(v, PropKey::Id);
                        }
                        buf.clear();
                        let _ = store.neighbors(a, Direction::Out, None, &mut buf);
                    }
                });
            }
        });
        assert_eq!(s.vertex_count(), WRITES as usize + 1);
        assert_eq!(s.edge_count(), WRITES as usize);
        assert_eq!(s.degree(a, Direction::Out, None).unwrap(), WRITES as usize);
        assert!(s.checkpoints_taken() >= (2 * WRITES) / 64 - 1);
    }

    #[test]
    fn chunked_fold_matches_monolithic_and_caps_lock_sessions() {
        // Build two identical stores; fold one with a tiny dirty-batch
        // cap and the other with the default. The snapshots must agree
        // row for row, and the capped fold must have split its live-row
        // copy across many lock sessions instead of one.
        const N: u64 = 200;
        let build = || {
            let s = NativeGraphStore::new();
            for i in 0..N {
                s.add_vertex(
                    VertexLabel::Person,
                    i,
                    &[(PropKey::FirstName, Value::str(if i % 2 == 0 { "eva" } else { "odd" }))],
                )
                .unwrap();
            }
            for i in 0..N {
                let a = Vid::new(VertexLabel::Person, i);
                let b = Vid::new(VertexLabel::Person, (i + 1) % N);
                s.add_edge(EdgeLabel::Knows, a, b, &[(PropKey::CreationDate, Value::Date(i as i64))])
                    .unwrap();
            }
            s
        };
        let capped = build();
        let mono = build();
        let sessions_before = capped.fold_lock_sessions();
        capped.compact_now_batched(16);
        mono.compact_now();
        // All N rows were new (nothing to reuse): at least N/16 separate
        // read-lock sessions, so no single session spans the store.
        assert!(
            capped.fold_lock_sessions() - sessions_before >= (N as u64) / 16,
            "expected many short lock sessions, got {}",
            capped.fold_lock_sessions() - sessions_before
        );
        let sc = capped.pin_snapshot().expect("fresh");
        let sm = mono.pin_snapshot().expect("fresh");
        assert_eq!(sc.n_rows(), sm.n_rows());
        assert_eq!(sc.edge_count(), sm.edge_count());
        for row in 0..sc.n_rows() as u32 {
            assert_eq!(sc.vid_of(row), sm.vid_of(row));
            assert_eq!(sc.prop(row, PropKey::FirstName), sm.prop(row, PropKey::FirstName));
            assert_eq!(
                sc.range(row, Direction::Out, EdgeLabel::Knows),
                sm.range(row, Direction::Out, EdgeLabel::Knows)
            );
            assert_eq!(
                sc.range(row, Direction::In, EdgeLabel::Knows),
                sm.range(row, Direction::In, EdgeLabel::Knows)
            );
        }

        // Second fold: dirty a scattered subset so the capped fold
        // interleaves lock-free clean runs with live batches, and
        // verify the delta lands correctly.
        for i in (0..N).step_by(37) {
            capped
                .set_vertex_prop(Vid::new(VertexLabel::Person, i), PropKey::LastName, Value::str("touched"))
                .unwrap();
            mono.set_vertex_prop(Vid::new(VertexLabel::Person, i), PropKey::LastName, Value::str("touched"))
                .unwrap();
        }
        capped.compact_now_batched(2);
        mono.compact_now();
        let sc = capped.pin_snapshot().expect("fresh");
        let sm = mono.pin_snapshot().expect("fresh");
        for row in 0..sc.n_rows() as u32 {
            assert_eq!(sc.prop(row, PropKey::LastName), sm.prop(row, PropKey::LastName));
            assert_eq!(
                sc.range(row, Direction::Out, EdgeLabel::Knows),
                sm.range(row, Direction::Out, EdgeLabel::Knows)
            );
        }
    }
}
