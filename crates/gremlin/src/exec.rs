//! The bulk-synchronous traversal executor.
//!
//! Steps no longer dispatch one traverser at a time: each step consumes
//! the whole frontier as a batch, and duplicate vertex traversers are
//! collapsed into `(vertex, count)` pairs — TinkerPop-style *bulking* —
//! so a 2-hop over 400 friends touches each distinct frontier vertex
//! once instead of once per path. When the backend serves an immutable
//! CSR snapshot ([`GraphBackend::pin_snapshot`]), expansions run as
//! contiguous CSR range scans with zero locks; otherwise every
//! expansion falls back to the fine-grained live API (one `neighbors`
//! call per vertex — the TinkerPop tax the paper measures).
//!
//! Frontiers at or above [`ExecConfig::morsel_min`] are split into
//! morsels and expanded on a small `std::thread::scope` worker pool
//! (`SNB_TRAVERSAL_WORKERS`); results are concatenated in morsel order,
//! so parallel execution is deterministic.
//!
//! `repeat().until()` shortest path keeps TinkerPop's simple-path
//! semantics: a level-order enumeration of every simple path, returning
//! the first one that reaches the target and bounded by the traverser
//! budget (the Table 3 "unable to complete" dashes). Paths live in one
//! parent-pointer arena (an entry per path, no per-path `Vec`), and a
//! single-step `out`/`in`/`both` body expands each head only when the
//! fan-out reaches it, so nothing after the target hit is expanded:
//! over a pinned snapshot it reads the head's CSR ranges in place, on
//! the live API it memoises one `neighbors` call per head and level.
//! Other bodies still expand a whole level eagerly, in first-occurrence
//! head order. [`repeat_paths_created`] and [`repeat_heads_expanded`]
//! count the search's work.
//!
//! Mutating steps (`addV`/`addE`/`property`) drop the pinned snapshot
//! for the rest of the traversal, so reads after a write inside one
//! traversal always see that write (read-your-writes).

use snb_core::{CsrSnapshot, Direction, EdgeLabel, GraphBackend, Result, SnbError, Value, Vid};
use snb_core::{FastMap, FastSet};
use std::cell::Cell;
use std::sync::Arc;
use std::sync::OnceLock;
use std::thread::LocalKey;

use crate::traversal::{fuse_groups, FuseGroup, Step, Traversal};

/// Hard cap on live traversers (sum of bulk counts); exceeding it
/// aborts the traversal with `Overloaded` (the Table 3 "unable to
/// complete" dashes).
pub const TRAVERSER_BUDGET: usize = 2_000_000;

thread_local! {
    static PATHS_CREATED: Cell<u64> = const { Cell::new(0) };
    static HEADS_EXPANDED: Cell<u64> = const { Cell::new(0) };
}

fn note(counter: &'static LocalKey<Cell<u64>>, n: usize) {
    counter.with(|c| c.set(c.get() + n as u64));
}

/// Paths the calling thread's `repeat().until()` searches have created
/// by extending a head with one more vertex (starts excluded, the path
/// that hits the target included). Monotonic; the difference of two
/// reads around a traversal is what that traversal created.
pub fn repeat_paths_created() -> u64 {
    PATHS_CREATED.with(Cell::get)
}

/// Neighbour lists the calling thread's `repeat().until()` searches
/// have fetched: one per fanned-out path over a pinned snapshot, one per
/// distinct head and level on the live API and for multi-step bodies.
/// Monotonic, like [`repeat_paths_created`].
pub fn repeat_heads_expanded() -> u64 {
    HEADS_EXPANDED.with(Cell::get)
}

/// Intra-query parallelism knobs. `workers` > 1 enables morsel-driven
/// frontier expansion; `morsel_min` is the frontier size below which
/// splitting is not worth the thread handoff; `fuse` runs adjacent
/// vertex expansions and their property filters as single CSR
/// range-scan passes ([`fuse_groups`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    pub workers: usize,
    pub morsel_min: usize,
    pub fuse: bool,
}

impl ExecConfig {
    /// Read `SNB_TRAVERSAL_WORKERS` (default 1), `SNB_MORSEL_MIN`
    /// (default 2048), and `SNB_STEP_FUSION` (default on; `0` or
    /// `false` disables) from the environment.
    pub fn from_env() -> Self {
        let parse = |k: &str, d: usize| {
            std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(d)
        };
        ExecConfig {
            workers: parse("SNB_TRAVERSAL_WORKERS", 1).max(1),
            morsel_min: parse("SNB_MORSEL_MIN", 2048).max(1),
            fuse: std::env::var("SNB_STEP_FUSION")
                .map(|v| v != "0" && !v.eq_ignore_ascii_case("false"))
                .unwrap_or(true),
        }
    }

    fn default_cached() -> ExecConfig {
        static CFG: OnceLock<ExecConfig> = OnceLock::new();
        *CFG.get_or_init(ExecConfig::from_env)
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { workers: 1, morsel_min: 2048, fuse: true }
    }
}

/// One traverser.
#[derive(Debug, Clone, PartialEq)]
enum Traverser {
    Vertex(Vid),
    /// An edge, remembering which endpoint we came from (for `otherV`).
    Edge { src: Vid, label: EdgeLabel, dst: Vid, came_from: Vid },
    Value(Value),
    /// A simple path accumulated by `RepeatUntil`.
    Path(Vec<Vid>),
}

impl Traverser {
    fn to_value(&self) -> Value {
        match self {
            Traverser::Vertex(v) => Value::Vertex(*v),
            Traverser::Value(v) => v.clone(),
            Traverser::Edge { src, dst, .. } => {
                Value::List(vec![Value::Vertex(*src), Value::Vertex(*dst)])
            }
            Traverser::Path(p) => {
                Value::List(p.iter().map(|v| Value::Vertex(*v)).collect())
            }
        }
    }
}

/// A traverser with its bulk count: `n` identical traversers processed
/// as one unit.
#[derive(Debug, Clone)]
struct Bulk {
    tr: Traverser,
    n: u64,
}

struct Ctx<'a, B: GraphBackend + ?Sized> {
    backend: &'a B,
    /// Pinned CSR snapshot; `None` when no fresh snapshot was available
    /// or a mutation step invalidated it mid-traversal.
    snap: Option<Arc<CsrSnapshot>>,
    cfg: ExecConfig,
}

/// Execute a traversal against a backend, returning the final
/// traversers as values (bulks expanded back to individuals).
pub fn execute(backend: &(impl GraphBackend + ?Sized), t: &Traversal) -> Result<Vec<Value>> {
    execute_with(backend, t, ExecConfig::default_cached())
}

/// [`execute`] with explicit parallelism and fusion knobs instead of
/// the environment's.
pub fn execute_with(
    backend: &(impl GraphBackend + ?Sized),
    t: &Traversal,
    cfg: ExecConfig,
) -> Result<Vec<Value>> {
    match run_capped(backend, t, cfg, TRAVERSER_BUDGET)? {
        Capped::Done(values) => Ok(values),
        Capped::Exceeded(total) => Err(SnbError::Overloaded(format!(
            "traverser budget exceeded ({total} live traversers)"
        ))),
    }
}

/// Execute with a caller-chosen cap on live traversers, checked after
/// every step. `Ok(None)` means the frontier outgrew the cap — static
/// step counts cannot see this (a short expansion chain through hub
/// vertices multiplies by real degrees), so transports use a small cap
/// to keep inline execution off their event-loop threads once a request
/// turns out to be expensive, re-running it on the worker pool instead.
/// Abandoning mid-traversal is only side-effect-free for read-only
/// traversals — callers must gate on [`Traversal::has_mutation`] first.
pub fn execute_capped(
    backend: &(impl GraphBackend + ?Sized),
    t: &Traversal,
    cap: usize,
) -> Result<Option<Vec<Value>>> {
    match run_capped(backend, t, ExecConfig::default_cached(), cap.min(TRAVERSER_BUDGET))? {
        Capped::Done(values) => Ok(Some(values)),
        Capped::Exceeded(_) => Ok(None),
    }
}

/// Outcome of a capped run: finished, or aborted with the live-traverser
/// count that broke the cap.
enum Capped {
    Done(Vec<Value>),
    Exceeded(u64),
}

fn run_capped(
    backend: &(impl GraphBackend + ?Sized),
    t: &Traversal,
    cfg: ExecConfig,
    cap: usize,
) -> Result<Capped> {
    let mut ctx = Ctx { backend, snap: backend.pin_snapshot(), cfg };
    let mut set: Vec<Bulk> = Vec::new();
    let groups: Vec<FuseGroup> = if cfg.fuse {
        fuse_groups(&t.steps)
    } else {
        (0..t.steps.len())
            .map(|i| FuseGroup { start: i, end: i + 1, expansion: false })
            .collect()
    };
    for g in &groups {
        let steps = &t.steps[g.start..g.end];
        // A vertex-expansion run executes as one fused pass in CSR row
        // space when a snapshot is pinned and the whole frontier lives
        // in it; otherwise (live-only vertices, no snapshot, non-vertex
        // traversers) fall through to the step-at-a-time path, which
        // reports the same type errors the unfused executor would.
        if matches!(steps[0], Step::Out(_) | Step::In(_) | Step::Both(_)) {
            if let Some(snap) = ctx.snap.clone() {
                match exec_fused(&snap, steps, &set, cap) {
                    FusedRun::Done(next) => {
                        set = next;
                        continue;
                    }
                    FusedRun::Exceeded(total) => return Ok(Capped::Exceeded(total)),
                    FusedRun::Bail => {}
                }
            }
        }
        for step in steps {
            set = apply_step(&mut ctx, step, set)?;
            let total: u64 = set.iter().map(|b| b.n).sum();
            if total > cap as u64 {
                return Ok(Capped::Exceeded(total));
            }
        }
    }
    let total: usize = set.iter().map(|b| b.n as usize).sum();
    let mut out = Vec::with_capacity(total);
    for b in &set {
        let v = b.tr.to_value();
        for _ in 1..b.n {
            out.push(v.clone());
        }
        out.push(v);
    }
    Ok(Capped::Done(out))
}

/// Outcome of one fused group: the next frontier, a cap breach, or a
/// bail-out back to step-at-a-time execution.
enum FusedRun {
    Done(Vec<Bulk>),
    Exceeded(u64),
    Bail,
}

/// Run a fused `out`/`in`/`both`/`has` group entirely in CSR row
/// space: hops chain through `neighbors_into` on row ids with
/// first-occurrence bulking after each hop (identical order and
/// multiplicities to the unfused path), and filters read the
/// snapshot's dense property columns inline. Vids are materialized
/// only once, at the group boundary. The cap is checked after every
/// internal step, exactly where the unfused loop checks it.
fn exec_fused(snap: &CsrSnapshot, steps: &[Step], set: &[Bulk], cap: usize) -> FusedRun {
    let mut rows: Vec<(u32, u64)> = Vec::with_capacity(set.len());
    for b in set {
        match &b.tr {
            Traverser::Vertex(v) => match snap.row_of(*v) {
                Some(r) => rows.push((r, b.n)),
                None => return FusedRun::Bail,
            },
            _ => return FusedRun::Bail,
        }
    }
    let mut buf: Vec<u32> = Vec::new();
    for step in steps {
        match step {
            Step::Out(l) => rows = fused_hop(snap, &rows, Direction::Out, *l, &mut buf),
            Step::In(l) => rows = fused_hop(snap, &rows, Direction::In, *l, &mut buf),
            Step::Both(l) => rows = fused_hop(snap, &rows, Direction::Both, *l, &mut buf),
            Step::Has(key, pred) => {
                // Missing properties never match, same as `vprop`-based
                // filtering on the unfused path.
                rows.retain(|&(r, _)| snap.prop(r, *key).is_some_and(|v| pred.test(&v)));
            }
            // `fuse_groups` never emits one; run the group unfused.
            _ => return FusedRun::Bail,
        }
        let total: u64 = rows.iter().map(|&(_, n)| n).sum();
        if total > cap as u64 {
            return FusedRun::Exceeded(total);
        }
    }
    FusedRun::Done(
        rows.into_iter()
            .map(|(r, n)| Bulk { tr: Traverser::Vertex(snap.vid_of(r)), n })
            .collect(),
    )
}

/// One fused hop: expand every `(row, bulk)` pair and collapse the raw
/// neighbour stream first-occurrence, mirroring [`collapse`] but on row
/// ids.
fn fused_hop(
    snap: &CsrSnapshot,
    rows: &[(u32, u64)],
    dir: Direction,
    label: Option<EdgeLabel>,
    buf: &mut Vec<u32>,
) -> Vec<(u32, u64)> {
    let mut index: FastMap<u32, u32> = FastMap::default();
    let mut out: Vec<(u32, u64)> = Vec::new();
    for &(r, n) in rows {
        buf.clear();
        snap.neighbors_into(r, dir, label, buf);
        for &nr in buf.iter() {
            match index.entry(nr) {
                std::collections::hash_map::Entry::Occupied(e) => out[*e.get() as usize].1 += n,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(out.len() as u32);
                    out.push((nr, n));
                }
            }
        }
    }
    out
}

fn vertex_of(tr: &Traverser) -> Result<Vid> {
    match tr {
        Traverser::Vertex(v) => Ok(*v),
        other => Err(SnbError::Exec(format!("step requires a vertex traverser, got {other:?}"))),
    }
}

/// Append the neighbours of `v`, preferring a CSR range scan over the
/// snapshot and falling back to the live backend API.
fn neighbors_into_vids<B: GraphBackend + ?Sized>(
    backend: &B,
    snap: Option<&CsrSnapshot>,
    v: Vid,
    dir: Direction,
    label: Option<EdgeLabel>,
    rows: &mut Vec<u32>,
    out: &mut Vec<Vid>,
) -> Result<()> {
    if let Some(s) = snap {
        if let Some(row) = s.row_of(v) {
            rows.clear();
            s.neighbors_into(row, dir, label, rows);
            out.extend(rows.iter().map(|&r| s.vid_of(r)));
            return Ok(());
        }
    }
    backend.neighbors(v, dir, label, out)
}

/// Collapse a raw expansion into bulks, preserving first-occurrence
/// order (TinkerPop bulking).
fn collapse(raw: Vec<(Vid, u64)>) -> Vec<Bulk> {
    let mut index: FastMap<Vid, u32> = FastMap::default();
    let mut out: Vec<Bulk> = Vec::new();
    for (v, n) in raw {
        match index.entry(v) {
            std::collections::hash_map::Entry::Occupied(e) => out[*e.get() as usize].n += n,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(out.len() as u32);
                out.push(Bulk { tr: Traverser::Vertex(v), n });
            }
        }
    }
    out
}

/// Vertex expansion over the whole frontier: morsel-parallel above the
/// threshold, then bulked.
fn expand_vertices<B: GraphBackend + ?Sized>(
    ctx: &Ctx<'_, B>,
    set: &[Bulk],
    dir: Direction,
    label: Option<EdgeLabel>,
) -> Result<Vec<Bulk>> {
    let raw = if set.len() >= ctx.cfg.morsel_min && ctx.cfg.workers > 1 {
        expand_morsels(ctx, set, dir, label)?
    } else {
        let mut raw: Vec<(Vid, u64)> = Vec::new();
        let mut rows: Vec<u32> = Vec::new();
        let mut vids: Vec<Vid> = Vec::new();
        for b in set {
            let v = vertex_of(&b.tr)?;
            vids.clear();
            neighbors_into_vids(ctx.backend, ctx.snap.as_deref(), v, dir, label, &mut rows, &mut vids)?;
            raw.extend(vids.iter().map(|&n| (n, b.n)));
        }
        raw
    };
    Ok(collapse(raw))
}

/// Split the frontier into contiguous morsels and expand them on a
/// scoped worker pool. Results concatenate in morsel order, so the
/// output is identical to the sequential expansion.
fn expand_morsels<B: GraphBackend + ?Sized>(
    ctx: &Ctx<'_, B>,
    set: &[Bulk],
    dir: Direction,
    label: Option<EdgeLabel>,
) -> Result<Vec<(Vid, u64)>> {
    let workers = ctx.cfg.workers.min(set.len()).max(1);
    let chunk = set.len().div_ceil(workers);
    let backend = ctx.backend;
    let snap = ctx.snap.as_deref();
    let parts: Vec<Result<Vec<(Vid, u64)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = set
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || -> Result<Vec<(Vid, u64)>> {
                    let mut raw: Vec<(Vid, u64)> = Vec::new();
                    let mut rows: Vec<u32> = Vec::new();
                    let mut vids: Vec<Vid> = Vec::new();
                    for b in part {
                        let v = vertex_of(&b.tr)?;
                        vids.clear();
                        neighbors_into_vids(backend, snap, v, dir, label, &mut rows, &mut vids)?;
                        raw.extend(vids.iter().map(|&n| (n, b.n)));
                    }
                    Ok(raw)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(SnbError::Exec("morsel worker panicked".into()))))
            .collect()
    });
    let mut raw = Vec::new();
    for p in parts {
        raw.extend(p?);
    }
    Ok(raw)
}

fn expand_edges<B: GraphBackend + ?Sized>(
    ctx: &Ctx<'_, B>,
    set: &[Bulk],
    dir: Direction,
    label: EdgeLabel,
) -> Result<Vec<Bulk>> {
    let mut out: Vec<Bulk> = Vec::new();
    let mut rows: Vec<u32> = Vec::new();
    let mut vids: Vec<Vid> = Vec::new();
    let dirs: &[Direction] = match dir {
        Direction::Out => &[Direction::Out],
        Direction::In => &[Direction::In],
        Direction::Both => &[Direction::Out, Direction::In],
    };
    for b in set {
        let v = vertex_of(&b.tr)?;
        for &d in dirs {
            vids.clear();
            neighbors_into_vids(ctx.backend, ctx.snap.as_deref(), v, d, Some(label), &mut rows, &mut vids)?;
            for &n in &vids {
                let (src, dst) = if d == Direction::Out { (v, n) } else { (n, v) };
                out.push(Bulk { tr: Traverser::Edge { src, label, dst, came_from: v }, n: b.n });
            }
        }
    }
    Ok(out)
}

/// One vertex property, via the snapshot's dense columns when pinned.
fn vprop<B: GraphBackend + ?Sized>(ctx: &Ctx<'_, B>, v: Vid, key: snb_core::PropKey) -> Result<Option<Value>> {
    if let Some(s) = &ctx.snap {
        if let Some(row) = s.row_of(v) {
            return Ok(s.prop(row, key));
        }
    }
    ctx.backend.vertex_prop(v, key)
}

/// One edge property; the native snapshot carries out-edge property
/// maps, generic snapshots route to the live store.
fn eprop<B: GraphBackend + ?Sized>(
    ctx: &Ctx<'_, B>,
    src: Vid,
    label: EdgeLabel,
    dst: Vid,
    key: snb_core::PropKey,
) -> Result<Option<Value>> {
    if let Some(s) = &ctx.snap {
        if s.has_edge_props() {
            if let (Some(sr), Some(dr)) = (s.row_of(src), s.row_of(dst)) {
                if let Ok(p) = s.out_edge_props(sr, label, dr) {
                    return Ok(p.and_then(|m| m.get(key).cloned()));
                }
            }
        }
    }
    ctx.backend.edge_prop(src, label, dst, key)
}

fn apply_step<B: GraphBackend + ?Sized>(
    ctx: &mut Ctx<'_, B>,
    step: &Step,
    set: Vec<Bulk>,
) -> Result<Vec<Bulk>> {
    Ok(match step {
        Step::V(id) => {
            let exists = match &ctx.snap {
                Some(s) => s.row_of(*id).is_some(),
                None => ctx.backend.vertex_exists(*id),
            };
            if exists {
                vec![Bulk { tr: Traverser::Vertex(*id), n: 1 }]
            } else {
                Vec::new()
            }
        }
        Step::VLabel(label) => match &ctx.snap {
            Some(s) => s
                .rows_by_label(*label)
                .iter()
                .map(|&r| Bulk { tr: Traverser::Vertex(s.vid_of(r)), n: 1 })
                .collect(),
            None => ctx
                .backend
                .vertices_by_label(*label)?
                .into_iter()
                .map(|v| Bulk { tr: Traverser::Vertex(v), n: 1 })
                .collect(),
        },
        Step::Out(l) => expand_vertices(ctx, &set, Direction::Out, *l)?,
        Step::In(l) => expand_vertices(ctx, &set, Direction::In, *l)?,
        Step::Both(l) => expand_vertices(ctx, &set, Direction::Both, *l)?,
        Step::OutE(l) => expand_edges(ctx, &set, Direction::Out, *l)?,
        Step::InE(l) => expand_edges(ctx, &set, Direction::In, *l)?,
        Step::BothE(l) => expand_edges(ctx, &set, Direction::Both, *l)?,
        Step::OtherV => {
            let mut raw: Vec<(Vid, u64)> = Vec::with_capacity(set.len());
            for b in set {
                match b.tr {
                    Traverser::Edge { src, dst, came_from, .. } => {
                        raw.push((if came_from == src { dst } else { src }, b.n));
                    }
                    other => return Err(SnbError::Exec(format!("otherV on non-edge {other:?}"))),
                }
            }
            collapse(raw)
        }
        Step::Has(key, pred) => {
            let mut out = Vec::with_capacity(set.len());
            for b in set {
                let v = vertex_of(&b.tr)?;
                // One lookup per *distinct* vertex — bulking collapses
                // the per-traverser property calls of the naive model.
                if let Some(val) = vprop(ctx, v, *key)? {
                    if pred.test(&val) {
                        out.push(b);
                    }
                }
            }
            out
        }
        Step::HasId(id) => set
            .into_iter()
            .filter(|b| matches!(&b.tr, Traverser::Vertex(v) if v == id))
            .collect(),
        Step::Values(key) => {
            let mut out = Vec::with_capacity(set.len());
            for b in set {
                let v = vertex_of(&b.tr)?;
                if let Some(val) = vprop(ctx, v, *key)? {
                    out.push(Bulk { tr: Traverser::Value(val), n: b.n });
                }
            }
            out
        }
        Step::EdgeValues(key) => {
            let mut out = Vec::with_capacity(set.len());
            for b in set {
                match &b.tr {
                    Traverser::Edge { src, label, dst, .. } => {
                        let val = eprop(ctx, *src, *label, *dst, *key)?.unwrap_or(Value::Null);
                        out.push(Bulk { tr: Traverser::Value(val), n: b.n });
                    }
                    other => {
                        return Err(SnbError::Exec(format!("edgeValues on non-edge {other:?}")))
                    }
                }
            }
            out
        }
        Step::ValueMap => {
            let mut out = Vec::with_capacity(set.len());
            for b in set {
                let v = vertex_of(&b.tr)?;
                let list = match &ctx.snap {
                    Some(s) => match s.row_of(v) {
                        Some(row) => {
                            let props = s.props_of(row);
                            let mut list = Vec::with_capacity(props.len() * 2);
                            for (k, val) in props.iter() {
                                list.push(Value::str(k.as_str()));
                                list.push(val.clone());
                            }
                            list
                        }
                        None => Vec::new(),
                    },
                    None => {
                        let props = ctx.backend.vertex_props(v)?;
                        let mut list = Vec::with_capacity(props.len() * 2);
                        for (k, val) in props {
                            list.push(Value::str(k.as_str()));
                            list.push(val);
                        }
                        list
                    }
                };
                out.push(Bulk { tr: Traverser::Value(Value::List(list)), n: b.n });
            }
            out
        }
        Step::Dedup => {
            // Dedup is the canonical bulk barrier: distinct traversers
            // survive with their bulk reset to 1.
            let mut seen: FastSet<Value> = FastSet::default();
            set.into_iter()
                .filter(|b| seen.insert(b.tr.to_value()))
                .map(|mut b| {
                    b.n = 1;
                    b
                })
                .collect()
        }
        Step::Limit(n) => {
            let mut remaining = *n as u64;
            let mut out = Vec::new();
            for mut b in set {
                if remaining == 0 {
                    break;
                }
                if b.n > remaining {
                    b.n = remaining;
                }
                remaining -= b.n;
                out.push(b);
            }
            out
        }
        Step::Count => {
            let total: u64 = set.iter().map(|b| b.n).sum();
            vec![Bulk { tr: Traverser::Value(Value::Int(total as i64)), n: 1 }]
        }
        Step::OrderBy(key, asc) => {
            let mut keyed: Vec<(Value, Bulk)> = Vec::with_capacity(set.len());
            for b in set {
                let k = match &b.tr {
                    Traverser::Vertex(v) => vprop(ctx, *v, *key)?.unwrap_or(Value::Null),
                    Traverser::Edge { src, label, dst, .. } => {
                        eprop(ctx, *src, *label, *dst, *key)?.unwrap_or(Value::Null)
                    }
                    other => return Err(SnbError::Exec(format!("orderBy on {other:?}"))),
                };
                keyed.push((k, b));
            }
            keyed.sort_by(|(a, _), (b, _)| {
                let ord = match (a, b) {
                    (Value::Date(x), Value::Int(y)) | (Value::Int(x), Value::Date(y)) => x.cmp(y),
                    _ => a.cmp(b),
                };
                if *asc {
                    ord
                } else {
                    ord.reverse()
                }
            });
            keyed.into_iter().map(|(_, b)| b).collect()
        }
        Step::RepeatUntil { body, until, max_loops } => {
            repeat_until(ctx, &set, body, *until, *max_loops)?
        }
        Step::PathLen => set
            .into_iter()
            .map(|b| match b.tr {
                Traverser::Path(p) => Ok(Bulk {
                    tr: Traverser::Value(Value::Int(p.len().saturating_sub(1) as i64)),
                    n: b.n,
                }),
                other => Err(SnbError::Exec(format!("pathLen on non-path {other:?}"))),
            })
            .collect::<Result<Vec<_>>>()?,
        Step::AddV { label, id, props } => {
            ctx.snap = None; // read-your-writes for the rest of the traversal
            let v = ctx.backend.add_vertex(*label, *id, props)?;
            vec![Bulk { tr: Traverser::Vertex(v), n: 1 }]
        }
        Step::AddE { label, from, to, props } => {
            ctx.snap = None;
            ctx.backend.add_edge(*label, *from, *to, props)?;
            vec![Bulk {
                tr: Traverser::Edge { src: *from, label: *label, dst: *to, came_from: *from },
                n: 1,
            }]
        }
        Step::Property(key, value) => {
            ctx.snap = None;
            for b in &set {
                let v = vertex_of(&b.tr)?;
                ctx.backend.set_vertex_prop(v, *key, value.clone())?;
            }
            set
        }
    })
}

/// The `repeat(body.simplePath()).until(hasId(target))` loop. Returns a
/// path traverser for the first target hit; BFS level order, so that
/// first hit is a shortest path.
///
/// Starts are taken in `set` order, one path per entry (bulk ignored).
/// Single-step `out`/`in`/`both` bodies run in CSR row space when a
/// snapshot is pinned and every start has a row; otherwise (and for
/// any other body) the search runs on vertex ids through
/// [`VidHeads`].
fn repeat_until<B: GraphBackend + ?Sized>(
    ctx: &mut Ctx<'_, B>,
    set: &[Bulk],
    body: &[Step],
    until: Vid,
    max_loops: u32,
) -> Result<Vec<Bulk>> {
    let mut starts: Vec<Vid> = Vec::with_capacity(set.len());
    for b in set {
        let v = vertex_of(&b.tr)?;
        if v == until {
            return Ok(vec![Bulk { tr: Traverser::Path(vec![v]), n: 1 }]);
        }
        starts.push(v);
    }
    let fast: Option<(Direction, Option<EdgeLabel>)> = match body {
        [Step::Out(l)] => Some((Direction::Out, *l)),
        [Step::In(l)] => Some((Direction::In, *l)),
        [Step::Both(l)] => Some((Direction::Both, *l)),
        _ => None,
    };
    let in_rows = match (fast, ctx.snap.clone()) {
        (Some((dir, label)), Some(snap)) => starts
            .iter()
            .map(|&v| snap.row_of(v))
            .collect::<Option<Vec<u32>>>()
            .map(|rows| (RowHeads { snap, dir, label, buf: Vec::new() }, rows)),
        _ => None,
    };
    let path: Option<Vec<Vid>> = match in_rows {
        Some((mut heads, rows)) => {
            let until_row = heads.snap.row_of(until);
            search(&mut heads, &rows, until_row, max_loops)?
                .map(|p| p.into_iter().map(|r| heads.snap.vid_of(r)).collect())
        }
        None => search(&mut VidHeads::new(ctx, body, fast), &starts, Some(until), max_loops)?,
    };
    Ok(path.map(|p| vec![Bulk { tr: Traverser::Path(p), n: 1 }]).unwrap_or_default())
}

/// Parent index of a start path in the search arena.
const ROOT: u32 = u32::MAX;

/// Source of neighbour lists for [`search`], one head at a time.
trait Heads<H> {
    /// Called with every path of a level before that level fans out.
    fn begin_level(&mut self, _level: &[(u32, H)]) -> Result<()> {
        Ok(())
    }

    /// The head's neighbours in adjacency order, as at most two slices
    /// (`both()` reads the out range, then the in range).
    fn neighbors(&mut self, head: H) -> Result<[&[H]; 2]>;
}

/// Level-order simple-path enumeration over a parent-pointer arena: one
/// `(parent index, head)` entry per path, so extending a path is one
/// push instead of a `Vec` clone. Level `k` is a contiguous arena range
/// and paths fan out in arena order, which is the order the per-path
/// `Vec` version produced. The budget is checked after each path's
/// fan-out against the size of the level being built.
fn search<H: Copy + PartialEq, X: Heads<H>>(
    heads: &mut X,
    starts: &[H],
    until: Option<H>,
    max_loops: u32,
) -> Result<Option<Vec<H>>> {
    let mut arena: Vec<(u32, H)> = starts.iter().map(|&h| (ROOT, h)).collect();
    let mut on_path: Vec<H> = Vec::new();
    let mut lo = 0;
    let created = |arena: &Vec<(u32, H)>| note(&PATHS_CREATED, arena.len() - starts.len());
    for _ in 0..max_loops {
        let hi = arena.len();
        if lo == hi {
            break;
        }
        heads.begin_level(&arena[lo..hi])?;
        for ix in lo..hi {
            on_path.clear();
            let mut at = ix as u32;
            while at != ROOT {
                let (parent, h) = arena[at as usize];
                on_path.push(h);
                at = parent;
            }
            for part in heads.neighbors(on_path[0])? {
                for &v in part {
                    if on_path.contains(&v) {
                        continue; // simplePath()
                    }
                    arena.push((ix as u32, v));
                    if until == Some(v) {
                        created(&arena);
                        on_path.reverse();
                        on_path.push(v);
                        return Ok(Some(on_path));
                    }
                }
            }
            let level = arena.len() - hi;
            if level > TRAVERSER_BUDGET || arena.len() >= ROOT as usize {
                created(&arena);
                return Err(SnbError::Overloaded(format!(
                    "repeat/until exceeded the traverser budget ({level} paths)"
                )));
            }
        }
        lo = hi;
    }
    created(&arena);
    Ok(None)
}

/// Row-space heads for a single-step body over a pinned snapshot: each
/// fan-out reads the head's CSR ranges in place.
struct RowHeads {
    snap: Arc<CsrSnapshot>,
    dir: Direction,
    label: Option<EdgeLabel>,
    /// Scratch for label-less bodies, which span every label's range.
    buf: Vec<u32>,
}

impl Heads<u32> for RowHeads {
    fn neighbors(&mut self, row: u32) -> Result<[&[u32]; 2]> {
        note(&HEADS_EXPANDED, 1);
        let s = &*self.snap;
        Ok(match (self.label, self.dir) {
            (Some(l), Direction::Both) => [s.range(row, Direction::Out, l), s.range(row, Direction::In, l)],
            (Some(l), d) => [s.range(row, d, l), &[]],
            (None, d) => {
                self.buf.clear();
                s.neighbors_into(row, d, None, &mut self.buf);
                [self.buf.as_slice(), &[]]
            }
        })
    }
}

/// Vertex-id heads. A single-step body fetches a head's neighbours the
/// first time the fan-out reaches it and memoises them for the rest of
/// the level, so a head costs at most one backend call per level. Any
/// other body (which may mutate) runs the step pipeline from every
/// distinct head of a level, in first-occurrence order, before the
/// level fans out.
struct VidHeads<'c, 'a, B: GraphBackend + ?Sized> {
    ctx: &'c mut Ctx<'a, B>,
    body: &'c [Step],
    fast: Option<(Direction, Option<EdgeLabel>)>,
    /// Head -> its range in `adj`, for the current level.
    index: FastMap<Vid, (usize, usize)>,
    adj: Vec<Vid>,
    rows: Vec<u32>,
}

impl<'c, 'a, B: GraphBackend + ?Sized> VidHeads<'c, 'a, B> {
    fn new(ctx: &'c mut Ctx<'a, B>, body: &'c [Step], fast: Option<(Direction, Option<EdgeLabel>)>) -> Self {
        VidHeads { ctx, body, fast, index: FastMap::default(), adj: Vec::new(), rows: Vec::new() }
    }
}

impl<B: GraphBackend + ?Sized> Heads<Vid> for VidHeads<'_, '_, B> {
    fn begin_level(&mut self, level: &[(u32, Vid)]) -> Result<()> {
        self.index.clear();
        self.adj.clear();
        if self.fast.is_some() {
            return Ok(());
        }
        for &(_, h) in level {
            if self.index.contains_key(&h) {
                continue;
            }
            note(&HEADS_EXPANDED, 1);
            let mut frontier = vec![Bulk { tr: Traverser::Vertex(h), n: 1 }];
            for step in self.body {
                frontier = apply_step(self.ctx, step, frontier)?;
            }
            let a = self.adj.len();
            for b in frontier {
                let v = vertex_of(&b.tr)?;
                self.adj.extend((0..b.n).map(|_| v));
            }
            self.index.insert(h, (a, self.adj.len()));
        }
        Ok(())
    }

    fn neighbors(&mut self, h: Vid) -> Result<[&[Vid]; 2]> {
        let (a, b) = match (self.index.get(&h), self.fast) {
            (Some(&r), _) => r,
            (None, Some((dir, label))) => {
                note(&HEADS_EXPANDED, 1);
                let a = self.adj.len();
                let snap = self.ctx.snap.as_deref();
                neighbors_into_vids(self.ctx.backend, snap, h, dir, label, &mut self.rows, &mut self.adj)?;
                let r = (a, self.adj.len());
                self.index.insert(h, r);
                r
            }
            (None, None) => return Err(SnbError::Exec(format!("repeat head {h:?} missing from its level"))),
        };
        Ok([&self.adj[a..b], &[]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::Predicate;
    use snb_core::{PropKey, VertexLabel};
    use snb_graph_native::NativeGraphStore;

    fn p(id: u64) -> Vid {
        Vid::new(VertexLabel::Person, id)
    }

    fn fixture() -> NativeGraphStore {
        let s = NativeGraphStore::new();
        for (id, name) in [(1, "Ada"), (2, "Bob"), (3, "Cai"), (4, "Dee"), (5, "Eli"), (9, "Zoe")] {
            s.add_vertex(
                VertexLabel::Person,
                id,
                &[(PropKey::FirstName, Value::str(name))],
            )
            .unwrap();
        }
        for (a, b, d) in [(1u64, 2u64, 10i64), (2, 3, 20), (3, 4, 30), (4, 5, 40), (1, 3, 50)] {
            s.add_edge(EdgeLabel::Knows, p(a), p(b), &[(PropKey::CreationDate, Value::Date(d))])
                .unwrap();
        }
        s
    }

    #[test]
    fn point_lookup_values() {
        let s = fixture();
        let r = execute(&s, &Traversal::v(p(3)).values(PropKey::FirstName)).unwrap();
        assert_eq!(r, vec![Value::str("Cai")]);
        let r = execute(&s, &Traversal::v(p(77)).values(PropKey::FirstName)).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn one_hop_both() {
        let s = fixture();
        let mut r = execute(&s, &Traversal::v(p(3)).both(EdgeLabel::Knows).values(PropKey::Id)).unwrap();
        r.sort();
        assert_eq!(r, vec![Value::Int(1), Value::Int(2), Value::Int(4)]);
    }

    #[test]
    fn two_hop_dedup_count() {
        let s = fixture();
        let r = execute(
            &s,
            &Traversal::v(p(1))
                .both(EdgeLabel::Knows)
                .both(EdgeLabel::Knows)
                .dedup()
                .count(),
        )
        .unwrap();
        // Distinct vertices at exactly two both-steps from 1: {1,2,3,4}.
        assert_eq!(r, vec![Value::Int(4)]);
    }

    #[test]
    fn bulked_duplicates_survive_count() {
        let s = fixture();
        // Without dedup, the two-hop multiset from 1 is {1,1,2,3,4}:
        // bulking must preserve multiplicities through count().
        let r = execute(
            &s,
            &Traversal::v(p(1)).both(EdgeLabel::Knows).both(EdgeLabel::Knows).count(),
        )
        .unwrap();
        assert_eq!(r, vec![Value::Int(5)]);
        // ... and through final output expansion.
        let mut r = execute(
            &s,
            &Traversal::v(p(1))
                .both(EdgeLabel::Knows)
                .both(EdgeLabel::Knows)
                .values(PropKey::Id),
        )
        .unwrap();
        r.sort();
        assert_eq!(
            r,
            vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
        );
    }

    #[test]
    fn snapshot_and_live_paths_agree() {
        let s = fixture();
        let t = Traversal::v(p(1)).both(EdgeLabel::Knows).both(EdgeLabel::Knows).dedup().value_map();
        let live = {
            // No snapshot exists yet right after the writes (the
            // compactor hasn't caught up), so this runs the live path.
            let mut r = execute(&s, &t).unwrap();
            r.sort();
            r
        };
        s.compact_now();
        assert!(s.pin_snapshot().is_some(), "fresh snapshot after compact_now");
        let mut snap = execute(&s, &t).unwrap();
        snap.sort();
        assert_eq!(live, snap);
    }

    #[test]
    fn morsel_parallel_matches_sequential() {
        let s = fixture();
        s.compact_now();
        let t = Traversal::v_label(VertexLabel::Person)
            .both(EdgeLabel::Knows)
            .both(EdgeLabel::Knows)
            .values(PropKey::Id);
        let seq = execute_with(&s, &t, ExecConfig { workers: 1, morsel_min: 1, fuse: false }).unwrap();
        let par = execute_with(&s, &t, ExecConfig { workers: 4, morsel_min: 1, fuse: false }).unwrap();
        // Morsel results concatenate in order: identical, not just
        // set-equal.
        assert_eq!(seq, par);
        let sp = Traversal::v(p(1)).repeat_both_until(EdgeLabel::Knows, p(5), 8).path_len();
        let seq = execute_with(&s, &sp, ExecConfig { workers: 1, morsel_min: 1, fuse: false }).unwrap();
        let par = execute_with(&s, &sp, ExecConfig { workers: 4, morsel_min: 1, fuse: false }).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn has_filters_on_property() {
        let s = fixture();
        let r = execute(
            &s,
            &Traversal::v_label(VertexLabel::Person)
                .has(PropKey::FirstName, Predicate::Eq(Value::str("Dee")))
                .values(PropKey::Id),
        )
        .unwrap();
        assert_eq!(r, vec![Value::Int(4)]);
    }

    #[test]
    fn shortest_path_via_repeat_until() {
        let s = fixture();
        let r = execute(
            &s,
            &Traversal::v(p(1)).repeat_both_until(EdgeLabel::Knows, p(5), 8).path_len(),
        )
        .unwrap();
        assert_eq!(r, vec![Value::Int(3)]);
        // Same vertex: zero-length path.
        let r = execute(
            &s,
            &Traversal::v(p(2)).repeat_both_until(EdgeLabel::Knows, p(2), 8).path_len(),
        )
        .unwrap();
        assert_eq!(r, vec![Value::Int(0)]);
        // Unreachable: empty result.
        let r = execute(
            &s,
            &Traversal::v(p(1)).repeat_both_until(EdgeLabel::Knows, p(9), 8).path_len(),
        )
        .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn edges_and_edge_values() {
        let s = fixture();
        let r = execute(
            &s,
            &Traversal::v(p(1))
                .both_e(EdgeLabel::Knows)
                .edge_values(PropKey::CreationDate),
        )
        .unwrap();
        let mut dates: Vec<i64> = r.iter().map(|v| v.as_int().unwrap()).collect();
        dates.sort();
        assert_eq!(dates, vec![10, 50]);
        // otherV from person 1's knows edges.
        let mut r = execute(
            &s,
            &Traversal::v(p(1)).both_e(EdgeLabel::Knows).other_v().values(PropKey::Id),
        )
        .unwrap();
        r.sort();
        assert_eq!(r, vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn edge_values_through_snapshot() {
        let s = fixture();
        s.compact_now();
        assert!(s.pin_snapshot().is_some());
        let r = execute(
            &s,
            &Traversal::v(p(1))
                .both_e(EdgeLabel::Knows)
                .edge_values(PropKey::CreationDate),
        )
        .unwrap();
        let mut dates: Vec<i64> = r.iter().map(|v| v.as_int().unwrap()).collect();
        dates.sort();
        assert_eq!(dates, vec![10, 50]);
    }

    #[test]
    fn order_by_edge_property_desc() {
        let s = fixture();
        let r = execute(
            &s,
            &Traversal::v(p(1))
                .both_e(EdgeLabel::Knows)
                .order_by(PropKey::CreationDate, false)
                .other_v()
                .values(PropKey::Id),
        )
        .unwrap();
        assert_eq!(r, vec![Value::Int(3), Value::Int(2)]);
    }

    #[test]
    fn limit_and_value_map() {
        let s = fixture();
        let r = execute(&s, &Traversal::v_label(VertexLabel::Person).limit(2).count()).unwrap();
        assert_eq!(r, vec![Value::Int(2)]);
        let r = execute(&s, &Traversal::v(p(1)).value_map()).unwrap();
        match &r[0] {
            Value::List(items) => assert!(items.contains(&Value::str("firstName"))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limit_splits_bulks() {
        let s = fixture();
        // both().both() from 1 bulks 1 twice; limit(3) must split the
        // bulk, not truncate whole entries.
        let r = execute(
            &s,
            &Traversal::v(p(1)).both(EdgeLabel::Knows).both(EdgeLabel::Knows).limit(3).count(),
        )
        .unwrap();
        assert_eq!(r, vec![Value::Int(3)]);
    }

    #[test]
    fn capped_execution_spills_instead_of_erroring() {
        let s = fixture();
        // The two-hop multiset from 1 is {1,1,2,3,4}: 5 live traversers
        // after the second hop. A cap of 4 must abort with Ok(None) —
        // the caller's cue to re-run on the worker pool — while a cap
        // that fits returns the full result.
        let t = Traversal::v(p(1)).both(EdgeLabel::Knows).both(EdgeLabel::Knows);
        assert!(execute_capped(&s, &t, 4).unwrap().is_none());
        let full = execute_capped(&s, &t, 5).unwrap().expect("fits under the cap");
        assert_eq!(full.len(), 5);
    }

    #[test]
    fn mutations() {
        let s = fixture();
        execute(
            &s,
            &Traversal::g().add_v(VertexLabel::Person, 42, vec![(PropKey::FirstName, Value::str("New"))]),
        )
        .unwrap();
        execute(
            &s,
            &Traversal::g().add_e(EdgeLabel::Knows, p(42), p(1), vec![(PropKey::CreationDate, Value::Date(99))]),
        )
        .unwrap();
        let mut r = execute(&s, &Traversal::v(p(1)).both(EdgeLabel::Knows).values(PropKey::Id)).unwrap();
        r.sort();
        assert_eq!(r, vec![Value::Int(2), Value::Int(3), Value::Int(42)]);
        execute(&s, &Traversal::v(p(42)).property(PropKey::Gender, Value::str("female"))).unwrap();
        let r = execute(&s, &Traversal::v(p(42)).values(PropKey::Gender)).unwrap();
        assert_eq!(r, vec![Value::str("female")]);
    }

    #[test]
    fn mutation_mid_traversal_drops_snapshot() {
        let s = fixture();
        s.compact_now();
        // addV invalidates the pinned snapshot; the property read after
        // it must see the write (read-your-writes).
        let r = execute(
            &s,
            &Traversal::g()
                .add_v(VertexLabel::Person, 77, vec![(PropKey::FirstName, Value::str("Gus"))])
                .values(PropKey::FirstName),
        )
        .unwrap();
        assert_eq!(r, vec![Value::str("Gus")]);
    }

    #[test]
    fn fused_matches_unfused_exactly() {
        let s = fixture();
        s.compact_now();
        assert!(s.pin_snapshot().is_some(), "fused path needs a pinned snapshot");
        let fused = ExecConfig { workers: 1, morsel_min: 2048, fuse: true };
        let unfused = ExecConfig { workers: 1, morsel_min: 2048, fuse: false };
        let cases = vec![
            // Multi-hop chain: one fused group.
            Traversal::v(p(1)).both(EdgeLabel::Knows).both(EdgeLabel::Knows).values(PropKey::Id),
            // Expansion + property filter fuses into the same group.
            Traversal::v(p(1))
                .both(EdgeLabel::Knows)
                .both(EdgeLabel::Knows)
                .has(PropKey::FirstName, Predicate::Eq(Value::str("Dee")))
                .values(PropKey::Id),
            // Bulk multiplicities must survive the fused hops.
            Traversal::v(p(1)).both(EdgeLabel::Knows).both(EdgeLabel::Knows).count(),
            // Filter that drops everything mid-group.
            Traversal::v(p(1))
                .both(EdgeLabel::Knows)
                .has(PropKey::FirstName, Predicate::Eq(Value::str("nobody")))
                .both(EdgeLabel::Knows)
                .count(),
            // Fused group followed by unfusable steps.
            Traversal::v(p(1))
                .both(EdgeLabel::Knows)
                .both(EdgeLabel::Knows)
                .dedup()
                .order_by(PropKey::FirstName, true)
                .values(PropKey::FirstName),
            // Directed hops.
            Traversal::v(p(1)).out(EdgeLabel::Knows).out(EdgeLabel::Knows).values(PropKey::Id),
            Traversal::v(p(3)).in_(EdgeLabel::Knows).values(PropKey::Id),
        ];
        for t in &cases {
            let a = execute_with(&s, t, fused).unwrap();
            let b = execute_with(&s, t, unfused).unwrap();
            // Exact equality — order and multiplicities included.
            assert_eq!(a, b, "fused/unfused diverge for {t:?}");
        }
    }

    #[test]
    fn fused_bails_to_live_path_for_unsnapshotted_vertices() {
        let s = fixture();
        s.compact_now();
        // A vertex added after the compaction is live-only: the fused
        // pass cannot see it and must fall back per-step, which routes
        // through the live backend API.
        s.add_vertex(VertexLabel::Person, 50, &[(PropKey::FirstName, Value::str("New"))])
            .unwrap();
        s.add_edge(EdgeLabel::Knows, p(50), p(1), &[]).unwrap();
        let t = Traversal::v(p(50)).both(EdgeLabel::Knows).values(PropKey::FirstName);
        let r = execute_with(&s, &t, ExecConfig { workers: 1, morsel_min: 2048, fuse: true })
            .unwrap();
        assert_eq!(r, vec![Value::str("Ada")]);
    }

    #[test]
    fn fused_cap_check_fires_mid_group() {
        let s = fixture();
        s.compact_now();
        // Same shape as capped_execution_spills_instead_of_erroring,
        // but the whole two-hop now runs as one fused group: the cap
        // must still trip on the intermediate frontier totals.
        let t = Traversal::v(p(1)).both(EdgeLabel::Knows).both(EdgeLabel::Knows);
        assert!(execute_capped(&s, &t, 4).unwrap().is_none());
        let full = execute_capped(&s, &t, 5).unwrap().expect("fits under the cap");
        assert_eq!(full.len(), 5);
    }

    #[test]
    fn type_errors_are_reported() {
        let s = fixture();
        let r = execute(&s, &Traversal::v(p(1)).values(PropKey::FirstName).out_any());
        assert!(r.is_err());
        let r = execute(&s, &Traversal::v(p(1)).other_v());
        assert!(r.is_err());
        let r = execute(&s, &Traversal::v(p(1)).path_len());
        assert!(r.is_err());
    }
}
