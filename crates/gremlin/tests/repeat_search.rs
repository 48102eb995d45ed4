//! `repeat().until()` shortest-path search against a reference oracle.
//!
//! `reference_repeat_until` is the straightforward form of the search:
//! one `Vec` per path, cloned on every extension, and every distinct
//! head of a level expanded before the level fans out. The executor's
//! arena search must return the same path (not just the same length),
//! the same error kind and create the same number of paths, over a
//! pinned snapshot and over the live backend API alike, while expanding
//! no more heads.
//!
//! The same counting wrapper also holds the snapshot hot path of plain
//! two-hop expansions: over a compacted store they read only the pinned
//! CSR.

use snb_core::{
    CsrSnapshot, Direction, EdgeLabel, GraphBackend, PropKey, Result, SnbError, Value,
    VertexLabel, Vid,
};
use snb_gremlin::{
    execute, execute_with, repeat_heads_expanded, repeat_paths_created, ExecConfig, Step,
    Traversal,
};
use snb_graph_native::NativeGraphStore;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn p(id: u64) -> Vid {
    Vid::new(VertexLabel::Person, id)
}

fn tag(id: u64) -> Vid {
    Vid::new(VertexLabel::Tag, id)
}

/// The native store behind a wrapper that counts live `neighbors`
/// calls. [`Counted::live`] hides the store's snapshot, so every read
/// goes through the live API (deterministically: the store's background
/// compactor can otherwise publish a snapshot between two reads);
/// [`Counted::pinned`] forwards `pin_snapshot`.
struct Counted<'a> {
    store: &'a NativeGraphStore,
    pin: bool,
    neighbor_calls: AtomicU64,
}

impl<'a> Counted<'a> {
    fn live(store: &'a NativeGraphStore) -> Self {
        Counted { store, pin: false, neighbor_calls: AtomicU64::new(0) }
    }

    fn pinned(store: &'a NativeGraphStore) -> Self {
        Counted { store, pin: true, neighbor_calls: AtomicU64::new(0) }
    }

    fn calls(&self) -> u64 {
        self.neighbor_calls.load(Ordering::Relaxed)
    }
}

impl GraphBackend for Counted<'_> {
    fn name(&self) -> &'static str {
        "native-counted"
    }
    fn add_vertex(&self, label: VertexLabel, local_id: u64, props: &[(PropKey, Value)]) -> Result<Vid> {
        self.store.add_vertex(label, local_id, props)
    }
    fn add_edge(&self, label: EdgeLabel, src: Vid, dst: Vid, props: &[(PropKey, Value)]) -> Result<()> {
        self.store.add_edge(label, src, dst, props)
    }
    fn vertex_exists(&self, v: Vid) -> bool {
        self.store.vertex_exists(v)
    }
    fn vertex_prop(&self, v: Vid, key: PropKey) -> Result<Option<Value>> {
        self.store.vertex_prop(v, key)
    }
    fn vertex_props(&self, v: Vid) -> Result<Vec<(PropKey, Value)>> {
        self.store.vertex_props(v)
    }
    fn set_vertex_prop(&self, v: Vid, key: PropKey, value: Value) -> Result<()> {
        self.store.set_vertex_prop(v, key, value)
    }
    fn neighbors(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>, out: &mut Vec<Vid>) -> Result<()> {
        self.neighbor_calls.fetch_add(1, Ordering::Relaxed);
        self.store.neighbors(v, dir, label, out)
    }
    fn edge_prop(&self, src: Vid, label: EdgeLabel, dst: Vid, key: PropKey) -> Result<Option<Value>> {
        self.store.edge_prop(src, label, dst, key)
    }
    fn edge_exists(&self, src: Vid, label: EdgeLabel, dst: Vid) -> Result<bool> {
        self.store.edge_exists(src, label, dst)
    }
    fn vertices_by_label(&self, label: VertexLabel) -> Result<Vec<Vid>> {
        self.store.vertices_by_label(label)
    }
    fn vertex_count(&self) -> usize {
        self.store.vertex_count()
    }
    fn edge_count(&self) -> usize {
        self.store.edge_count()
    }
    fn storage_bytes(&self) -> usize {
        self.store.storage_bytes()
    }
    fn pin_snapshot(&self) -> Option<Arc<CsrSnapshot>> {
        if self.pin {
            self.store.pin_snapshot()
        } else {
            None
        }
    }
}

/// What the reference search did: its result and its work.
#[derive(Debug)]
struct Reference {
    result: Result<Option<Vec<Vid>>>,
    paths_created: u64,
    /// Distinct heads summed over levels: what expanding every head of
    /// a level up front costs.
    eager_heads: u64,
}

/// The `Vec`-per-path search with eager levels. Single-step bodies read
/// neighbours from the pinned snapshot when the head has a row and from
/// the live API otherwise; other bodies run the (unfused) executor from
/// each head.
fn reference_repeat_until<B: GraphBackend + ?Sized>(
    backend: &B,
    starts: &[Vid],
    body: &[Step],
    until: Vid,
    max_loops: u32,
) -> Reference {
    let mut out = Reference { result: Ok(None), paths_created: 0, eager_heads: 0 };
    let mut paths: Vec<Vec<Vid>> = Vec::new();
    for &v in starts {
        if v == until {
            out.result = Ok(Some(vec![v]));
            return out;
        }
        paths.push(vec![v]);
    }
    let snap = backend.pin_snapshot();
    let adjacency = |h: Vid| -> Result<Vec<Vid>> {
        let (dir, label) = match body {
            [Step::Out(l)] => (Direction::Out, *l),
            [Step::In(l)] => (Direction::In, *l),
            [Step::Both(l)] => (Direction::Both, *l),
            _ => {
                let mut steps = vec![Step::V(h)];
                steps.extend_from_slice(body);
                let cfg = ExecConfig { workers: 1, morsel_min: 2048, fuse: false };
                return execute_with(backend, &Traversal { steps }, cfg)?
                    .into_iter()
                    .map(|v| match v {
                        Value::Vertex(v) => Ok(v),
                        other => Err(SnbError::Exec(format!("non-vertex {other:?}"))),
                    })
                    .collect();
            }
        };
        let mut vids = Vec::new();
        match snap.as_deref().and_then(|s| s.row_of(h).map(|r| (s, r))) {
            Some((s, row)) => {
                let mut rows = Vec::new();
                s.neighbors_into(row, dir, label, &mut rows);
                vids.extend(rows.iter().map(|&r| s.vid_of(r)));
            }
            None => backend.neighbors(h, dir, label, &mut vids)?,
        }
        Ok(vids)
    };
    for _ in 0..max_loops {
        let mut heads: Vec<Vid> = Vec::new();
        for path in &paths {
            let h = *path.last().unwrap();
            if !heads.contains(&h) {
                heads.push(h);
            }
        }
        out.eager_heads += heads.len() as u64;
        let mut adj = Vec::with_capacity(heads.len());
        for &h in &heads {
            match adjacency(h) {
                Ok(a) => adj.push(a),
                Err(e) => {
                    out.result = Err(e);
                    return out;
                }
            }
        }
        let mut next: Vec<Vec<Vid>> = Vec::new();
        for path in &paths {
            let h = *path.last().unwrap();
            let hi = heads.iter().position(|&x| x == h).unwrap();
            for &v in &adj[hi] {
                if path.contains(&v) {
                    continue;
                }
                let mut new_path = path.clone();
                new_path.push(v);
                out.paths_created += 1;
                if v == until {
                    out.result = Ok(Some(new_path));
                    return out;
                }
                next.push(new_path);
            }
            if next.len() > snb_gremlin::TRAVERSER_BUDGET {
                out.result = Err(SnbError::Overloaded(format!("{} paths", next.len())));
                return out;
            }
        }
        if next.is_empty() {
            break;
        }
        paths = next;
    }
    out
}

/// What the executor did for one search: the path it returned, and the
/// work counters' deltas.
#[derive(Debug)]
struct Run {
    result: Result<Option<Vec<Vid>>>,
    paths_created: u64,
    heads_expanded: u64,
}

fn run<B: GraphBackend + ?Sized>(backend: &B, t: &Traversal) -> Run {
    let (paths0, heads0) = (repeat_paths_created(), repeat_heads_expanded());
    let result = execute(backend, t).map(|values| {
        assert!(values.len() <= 1, "at most one path: {values:?}");
        values.into_iter().next().map(|v| match v {
            Value::List(items) => items
                .into_iter()
                .map(|x| match x {
                    Value::Vertex(v) => v,
                    other => panic!("path element {other:?}"),
                })
                .collect(),
            other => panic!("path traverser {other:?}"),
        })
    });
    Run {
        result,
        paths_created: repeat_paths_created() - paths0,
        heads_expanded: repeat_heads_expanded() - heads0,
    }
}

/// The start set a prefix traversal yields on this backend: one vertex
/// per traverser entry, in order. Entries are already distinct (bulking
/// merged duplicates), so `dedup()` only drops the bulk counts that
/// `execute` would otherwise expand into repeats.
fn starts_of<B: GraphBackend + ?Sized>(backend: &B, prefix: &Traversal) -> Vec<Vid> {
    let mut seen = Vec::new();
    for v in execute(backend, &prefix.clone().dedup()).unwrap() {
        match v {
            Value::Vertex(v) => seen.push(v),
            other => panic!("start {other:?}"),
        }
    }
    seen
}

fn with_repeat(prefix: &Traversal, body: &[Step], until: Vid, max_loops: u32) -> Traversal {
    let mut steps = prefix.steps.clone();
    steps.push(Step::RepeatUntil { body: body.to_vec(), until, max_loops });
    Traversal { steps }
}

/// Run one search on `backend` through the executor and the oracle and
/// require identical results and path counts; returns both.
fn check<B: GraphBackend + ?Sized>(
    backend: &B,
    prefix: &Traversal,
    body: &[Step],
    until: Vid,
    max_loops: u32,
) -> (Run, Reference) {
    let starts = starts_of(backend, prefix);
    let got = run(backend, &with_repeat(prefix, body, until, max_loops));
    let want = reference_repeat_until(backend, &starts, body, until, max_loops);
    let what = format!("{prefix:?} repeat {body:?} until {until:?} max {max_loops}");
    match (&got.result, &want.result) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}"),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "{what}: {a:?} vs {b:?}"
        ),
        (a, b) => panic!("{what}: {a:?} vs {b:?}"),
    }
    assert_eq!(got.paths_created, want.paths_created, "{what}");
    (got, want)
}

/// A deterministic pseudo-random stream (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `persons` persons (ids 0..) with random directed Knows edges, a few
/// tags with HasInterest edges (so label-less bodies see more than one
/// label), and person `persons` left isolated.
fn random_graph(seed: u64, persons: u64, knows: u64) -> NativeGraphStore {
    let mut rng = Rng(seed);
    let s = NativeGraphStore::new();
    for id in 0..=persons {
        s.add_vertex(VertexLabel::Person, id, &[(PropKey::FirstName, Value::str("x"))]).unwrap();
    }
    for id in 0..3 {
        s.add_vertex(VertexLabel::Tag, id, &[]).unwrap();
    }
    for _ in 0..knows {
        let (a, b) = (rng.below(persons), rng.below(persons));
        if a != b && !s.edge_exists(p(a), EdgeLabel::Knows, p(b)).unwrap() {
            s.add_edge(EdgeLabel::Knows, p(a), p(b), &[]).unwrap();
        }
    }
    for a in 0..persons {
        if rng.below(3) == 0 {
            s.add_edge(EdgeLabel::HasInterest, p(a), tag(rng.below(3)), &[]).unwrap();
        }
    }
    s
}

/// Hop distance along `both(Knows)` (which the simple-path search's
/// first hit equals), by plain BFS.
fn knows_distance(s: &NativeGraphStore, from: Vid, to: Vid) -> Option<u32> {
    let mut seen = HashSet::from([from]);
    let mut queue = VecDeque::from([(from, 0u32)]);
    while let Some((v, d)) = queue.pop_front() {
        if v == to {
            return Some(d);
        }
        let mut nbrs = Vec::new();
        s.neighbors(v, Direction::Both, Some(EdgeLabel::Knows), &mut nbrs).unwrap();
        for n in nbrs {
            if seen.insert(n) {
                queue.push_back((n, d + 1));
            }
        }
    }
    None
}

fn bodies() -> Vec<Vec<Step>> {
    vec![
        vec![Step::Out(Some(EdgeLabel::Knows))],
        vec![Step::In(Some(EdgeLabel::Knows))],
        vec![Step::Both(Some(EdgeLabel::Knows))],
        vec![Step::Out(None)],
        vec![Step::In(None)],
        vec![Step::Both(None)],
        // General (two-step) bodies run eagerly per level.
        vec![Step::Both(Some(EdgeLabel::Knows)), Step::Both(Some(EdgeLabel::Knows))],
        vec![Step::Out(None), Step::Dedup],
    ]
}

#[test]
fn arena_search_matches_the_reference_on_random_graphs() {
    const PERSONS: u64 = 9;
    let mut searches = 0;
    for seed in 0..24u64 {
        let s = random_graph(seed, PERSONS, 14 + seed % 8);
        let mut rng = Rng(seed ^ 0xA5A5);
        let mut cases: Vec<(Traversal, Vid, u32)> = Vec::new();
        for _ in 0..3 {
            let (a, b) = (rng.below(PERSONS), rng.below(PERSONS));
            cases.push((Traversal::v(p(a)), p(b), 1 + rng.below(5) as u32));
        }
        let a = rng.below(PERSONS);
        cases.push((Traversal::v(p(a)), p(a), 4)); // start == until
        cases.push((Traversal::v(p(a)), p(PERSONS), 5)); // unreachable
        cases.push((Traversal::v(p(a)), p(999), 4)); // absent from the store
        cases.push((Traversal::v(p(a)), tag(rng.below(3)), 4));
        cases.push((Traversal::v(p(999)), p(a), 4)); // no start at all
        // Several starts, then bulked starts (bulk is ignored).
        cases.push((Traversal::v_label(VertexLabel::Person), p(rng.below(PERSONS)), 3));
        cases.push((
            Traversal::v(p(a)).both(EdgeLabel::Knows).both(EdgeLabel::Knows),
            p(rng.below(PERSONS)),
            3,
        ));
        let live_results: Vec<_> = {
            let live = Counted::live(&s);
            let mut out = Vec::new();
            for (prefix, until, max_loops) in &cases {
                for body in bodies() {
                    let (got, _) = check(&live, prefix, &body, *until, *max_loops);
                    out.push(got.result.map_err(|e| format!("{e:?}")));
                    searches += 1;
                }
            }
            out
        };
        s.compact_now();
        assert!(s.pin_snapshot().is_some());
        let mut i = 0;
        for (prefix, until, max_loops) in &cases {
            for body in bodies() {
                let (got, _) = check(&s, prefix, &body, *until, *max_loops);
                // The snapshot and the live API return the same path.
                assert_eq!(got.result.map_err(|e| format!("{e:?}")), live_results[i]);
                i += 1;
            }
        }
    }
    assert!(searches > 1000);
}

#[test]
fn target_exactly_at_max_loops_is_found_and_one_further_is_not() {
    let mut checked = 0;
    for seed in 0..16u64 {
        let s = random_graph(seed, 12, 16);
        let live = Counted::live(&s);
        let body = [Step::Both(Some(EdgeLabel::Knows))];
        for b in 1..12 {
            let Some(d) = knows_distance(&s, p(0), p(b)).filter(|&d| d >= 2) else { continue };
            for snapshot in [false, true] {
                if snapshot {
                    s.compact_now();
                }
                let backend: &dyn GraphBackend = if snapshot { &s } else { &live };
                let (at, _) = check(backend, &Traversal::v(p(0)), &body, p(b), d);
                let path = at.result.unwrap().expect("target at depth max_loops is found");
                assert_eq!(path.len() as u32, d + 1);
                assert_eq!((path[0], path[d as usize]), (p(0), p(b)));
                let (beyond, _) = check(backend, &Traversal::v(p(0)), &body, p(b), d - 1);
                assert_eq!(beyond.result.unwrap(), None, "target at depth max_loops + 1");
            }
            checked += 1;
        }
    }
    assert!(checked > 20, "{checked}");
}

/// The executor's unit-test fixture: persons 1..5 and 9, Knows edges
/// 1→2, 2→3, 3→4, 4→5, 1→3.
fn fixture() -> NativeGraphStore {
    let s = NativeGraphStore::new();
    for id in [1, 2, 3, 4, 5, 9] {
        s.add_vertex(VertexLabel::Person, id, &[]).unwrap();
    }
    for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)] {
        s.add_edge(EdgeLabel::Knows, p(a), p(b), &[]).unwrap();
    }
    s
}

/// A broom: person 0 knows hubs 1..=5 and every hub knows four leaves;
/// the target is hub 1's first leaf.
fn broom() -> NativeGraphStore {
    let s = NativeGraphStore::new();
    for id in 0..=25 {
        s.add_vertex(VertexLabel::Person, id, &[]).unwrap();
    }
    for hub in 1..=5u64 {
        s.add_edge(EdgeLabel::Knows, p(0), p(hub), &[]).unwrap();
        for leaf in 0..4 {
            s.add_edge(EdgeLabel::Knows, p(hub), p(6 + (hub - 1) * 4 + leaf), &[]).unwrap();
        }
    }
    s
}

#[test]
fn work_counters_are_exact_on_small_graphs() {
    let body = [Step::Both(Some(EdgeLabel::Knows))];
    // (graph, start, target, path, paths created, heads expanded lazily,
    // heads an eager level expands). Fixture, 1 → 5 both():
    //   level 1: [1,2] [1,3]                 heads {1}
    //   level 2: [1,2,3] [1,3,4] [1,3,2]     heads {2, 3}
    //   level 3: [1,2,3,4] [1,3,4,5] = hit   heads {3, 4}; eager adds 2
    // Broom, 0 → 6: level 1 creates the five hubs from head 0, level 2
    // hits on hub 1's first leaf; an eager level would expand all five.
    let cases = [
        (fixture(), p(1), p(5), vec![p(1), p(3), p(4), p(5)], 7, 5, 6),
        (broom(), p(0), p(6), vec![p(0), p(1), p(6)], 6, 2, 6),
    ];
    for (s, from, to, path, created, lazy, eager) in cases {
        let t = Traversal::v(from);
        let live = Counted::live(&s);
        let (got, want) = check(&live, &t, &body, to, 8);
        assert_eq!(got.result.unwrap(), Some(path.clone()));
        assert_eq!((got.paths_created, got.heads_expanded), (created, lazy));
        assert_eq!(want.eager_heads, eager);
        assert!(got.heads_expanded < want.eager_heads);
        // Memoised per level: one backend call per expanded head (the
        // oracle's own calls come after).
        let calls0 = live.calls();
        run(&live, &with_repeat(&t, &body, to, 8));
        assert_eq!(live.calls() - calls0, lazy);
        s.compact_now();
        let (got, _) = check(&s, &t, &body, to, 8);
        assert_eq!(got.result.unwrap(), Some(path));
        // Row space expands once per fanned-out path; on these graphs no
        // two fanned-out paths share a head.
        assert_eq!((got.paths_created, got.heads_expanded), (created, lazy));
    }
}

#[test]
fn general_bodies_still_expand_whole_levels() {
    // A two-step body may have side effects per head, so every distinct
    // head of a level is expanded before the fan-out, hit or not.
    let s = broom();
    let body = [Step::Both(Some(EdgeLabel::Knows)), Step::Dedup];
    let live = Counted::live(&s);
    let (got, want) = check(&live, &Traversal::v(p(0)), &body, p(6), 8);
    assert_eq!(got.result.unwrap(), Some(vec![p(0), p(1), p(6)]));
    assert_eq!(got.heads_expanded, want.eager_heads);
    assert_eq!(got.heads_expanded, 6);
}

/// A 12-person Knows clique searched from person 0 for an absent
/// target: level k holds 11!/(11-k)! simple paths, so level 8 would
/// hold 6.65M. The search must stop with `Overloaded` once the level
/// under construction passes the traverser budget, which happens after
/// 500,001 of level 7's 1,663,200 paths have fanned out (four new paths
/// each).
#[test]
fn clique_search_past_the_budget_is_overloaded() {
    let s = NativeGraphStore::new();
    for id in 0..12 {
        s.add_vertex(VertexLabel::Person, id, &[]).unwrap();
    }
    for a in 0..12 {
        for b in a + 1..12 {
            s.add_edge(EdgeLabel::Knows, p(a), p(b), &[]).unwrap();
        }
    }
    let t = Traversal::v(p(0)).repeat_both_until(EdgeLabel::Knows, p(999), 10);
    let created = 11 + 110 + 990 + 7_920 + 55_440 + 332_640 + 1_663_200 + 2_000_004;
    let live = Counted::live(&s);
    let got = run(&live, &t);
    assert!(matches!(got.result, Err(SnbError::Overloaded(_))), "{:?}", got.result);
    assert_eq!(got.paths_created, created);
    s.compact_now();
    let got = run(&s, &t);
    assert!(matches!(got.result, Err(SnbError::Overloaded(_))), "{:?}", got.result);
    assert_eq!(got.paths_created, created);
    // Row space: one expansion per fanned-out path.
    let fanned = 1 + 11 + 110 + 990 + 7_920 + 55_440 + 332_640 + 500_001;
    assert_eq!(got.heads_expanded, fanned);
}

/// `out(Knows).out(Knows)` and `both(Knows).both(Knows)` from every
/// person of a compacted store, fused and unfused, read the pinned CSR
/// only: zero live `neighbors` calls, and the same rows as the live API.
#[test]
fn two_hops_over_a_compacted_store_make_no_live_neighbor_calls() {
    let mut rows = 0;
    for seed in 0..8u64 {
        let s = random_graph(seed, 40, 120);
        s.compact_now();
        let live = Counted::live(&s);
        let pinned = Counted::pinned(&s);
        assert!(pinned.pin_snapshot().is_some());
        for start in 0..40 {
            let two_hops = [
                Traversal::v(p(start)).out(EdgeLabel::Knows).out(EdgeLabel::Knows),
                Traversal::v(p(start)).both(EdgeLabel::Knows).both(EdgeLabel::Knows),
            ];
            for t in &two_hops {
                for fuse in [true, false] {
                    let cfg = ExecConfig { workers: 1, morsel_min: 2048, fuse };
                    let want = execute_with(&live, t, cfg).unwrap();
                    let got = execute_with(&pinned, t, cfg).unwrap();
                    assert_eq!(got, want, "seed {seed}, start {start}, fuse {fuse}");
                    rows += got.len();
                }
            }
        }
        assert_eq!(pinned.calls(), 0, "seed {seed}: live neighbors calls over a pinned CSR");
        assert!(live.calls() > 0);
    }
    assert!(rows > 1000, "{rows}");
}
