//! The triple table and its permutation indexes.

use parking_lot::RwLock;
use snb_core::{EdgeLabel, PropKey, Result, Value, VertexLabel, Vid};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::Bound;

use crate::term::{
    edge_pred, prop_pred, Dictionary, Term, TermId, PRED_DST, PRED_SRC, PRED_TYPE,
};

/// Which permutation indexes to maintain. The paper's "single table with
/// extensive indexing"; the ablation bench varies this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexConfig {
    /// SPO only (minimum viable).
    Spo,
    /// SPO + POS + OSP (the common default; used for all experiments).
    Three,
    /// All six permutations (Virtuoso-style extensive indexing).
    Six,
}

impl IndexConfig {
    /// The permutations this configuration maintains. Each entry maps
    /// `(s, p, o)` into index key order.
    pub fn permutations(self) -> &'static [Perm] {
        match self {
            IndexConfig::Spo => &[Perm::Spo],
            IndexConfig::Three => &[Perm::Spo, Perm::Pos, Perm::Osp],
            IndexConfig::Six => {
                &[Perm::Spo, Perm::Pos, Perm::Osp, Perm::Pso, Perm::Ops, Perm::Sop]
            }
        }
    }
}

/// A triple-component permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perm {
    Spo,
    Pos,
    Osp,
    Pso,
    Ops,
    Sop,
}

impl Perm {
    fn pack(self, s: TermId, p: TermId, o: TermId) -> (TermId, TermId, TermId) {
        match self {
            Perm::Spo => (s, p, o),
            Perm::Pos => (p, o, s),
            Perm::Osp => (o, s, p),
            Perm::Pso => (p, s, o),
            Perm::Ops => (o, p, s),
            Perm::Sop => (s, o, p),
        }
    }

    fn unpack(self, k: (TermId, TermId, TermId)) -> (TermId, TermId, TermId) {
        match self {
            Perm::Spo => (k.0, k.1, k.2),
            Perm::Pos => (k.2, k.0, k.1),
            Perm::Osp => (k.1, k.2, k.0),
            Perm::Pso => (k.1, k.0, k.2),
            Perm::Ops => (k.2, k.1, k.0),
            Perm::Sop => (k.0, k.2, k.1),
        }
    }
}

struct Inner {
    dict: Dictionary,
    indexes: Vec<(Perm, BTreeSet<Key>)>,
    triple_count: usize,
}

/// The triple store.
pub struct TripleStore {
    inner: RwLock<Inner>,
    config: IndexConfig,
}

impl TripleStore {
    /// Empty store with the default three permutation indexes.
    pub fn new() -> Self {
        Self::with_indexes(IndexConfig::Three)
    }

    /// Empty store with an explicit index configuration.
    pub fn with_indexes(config: IndexConfig) -> Self {
        TripleStore {
            inner: RwLock::new(Inner {
                dict: Dictionary::new(),
                indexes: config
                    .permutations()
                    .iter()
                    .map(|&p| (p, BTreeSet::new()))
                    .collect(),
                triple_count: 0,
            }),
            config,
        }
    }

    /// The active index configuration.
    pub fn index_config(&self) -> IndexConfig {
        self.config
    }

    fn insert_locked(inner: &mut Inner, s: &Term, p: &Term, o: &Term) {
        let (s, p, o) = (inner.dict.encode(s), inner.dict.encode(p), inner.dict.encode(o));
        let mut added = false;
        for (perm, set) in &mut inner.indexes {
            added = set.insert(perm.pack(s, p, o));
        }
        if added {
            inner.triple_count += 1;
        }
    }

    /// Insert one ground triple (idempotent — RDF graphs are sets).
    pub fn insert(&self, s: &Term, p: &Term, o: &Term) {
        Self::insert_locked(&mut self.inner.write(), s, p, o);
    }

    /// Insert many ground triples under a single write-lock acquisition
    /// — the bulk path parallel appliers use so N triples cost one lock
    /// round trip instead of N.
    pub fn insert_batch(&self, triples: &[(Term, Term, Term)]) {
        if triples.is_empty() {
            return;
        }
        let mut inner = self.inner.write();
        for (s, p, o) in triples {
            Self::insert_locked(&mut inner, s, p, o);
        }
    }

    /// Expand an SNB vertex into its triples: `rdf:type` + `snb:id` +
    /// one triple per property (list values expand to one triple per
    /// element). Pure builder — takes no locks.
    pub fn vertex_triples(
        label: VertexLabel,
        id: u64,
        props: &[(PropKey, Value)],
        out: &mut Vec<(Term, Term, Term)>,
    ) {
        let e = Term::Entity(Vid::new(label, id));
        out.push((e.clone(), Term::Pred(PRED_TYPE), Term::Lit(Value::str(label.as_str()))));
        out.push((e.clone(), Term::Pred(prop_pred(PropKey::Id)), Term::Lit(Value::Int(id as i64))));
        for (k, v) in props {
            match v {
                Value::List(items) => {
                    for item in items {
                        out.push((e.clone(), Term::Pred(prop_pred(*k)), Term::Lit(item.clone())));
                    }
                }
                v => out.push((e.clone(), Term::Pred(prop_pred(*k)), Term::Lit(v.clone()))),
            }
        }
    }

    /// Expand an SNB edge into its triples. Property-less edges are a
    /// single triple; edges with properties are additionally reified
    /// into a statement node carrying `snb:src` / `snb:dst` / property
    /// triples. `knows` is reified in both directions (it is queried
    /// symmetrically). Statement nodes come from `fresh_stmt`, which
    /// takes its own short dictionary lock — call this BEFORE taking
    /// any batch-wide lock.
    pub fn edge_triples(
        &self,
        label: EdgeLabel,
        src: Vid,
        dst: Vid,
        props: &[(PropKey, Value)],
        out: &mut Vec<(Term, Term, Term)>,
    ) {
        let s = Term::Entity(src);
        let d = Term::Entity(dst);
        out.push((s.clone(), Term::Pred(edge_pred(label)), d.clone()));
        if props.is_empty() {
            return;
        }
        let reify = |from: &Term, to: &Term, out: &mut Vec<(Term, Term, Term)>| {
            let stmt = self.fresh_stmt();
            out.push((stmt.clone(), Term::Pred(PRED_TYPE), Term::Lit(Value::str(label.as_str()))));
            out.push((stmt.clone(), Term::Pred(PRED_SRC), from.clone()));
            out.push((stmt.clone(), Term::Pred(PRED_DST), to.clone()));
            for (k, v) in props {
                out.push((stmt.clone(), Term::Pred(prop_pred(*k)), Term::Lit(v.clone())));
            }
        };
        reify(&s, &d, out);
        if label == EdgeLabel::Knows {
            reify(&d, &s, out);
        }
    }

    /// Insert an SNB vertex (see [`TripleStore::vertex_triples`]).
    pub fn insert_vertex(&self, label: VertexLabel, id: u64, props: &[(PropKey, Value)]) {
        let mut triples = Vec::new();
        Self::vertex_triples(label, id, props, &mut triples);
        self.insert_batch(&triples);
    }

    /// Insert an SNB edge (see [`TripleStore::edge_triples`]).
    pub fn insert_edge(&self, label: EdgeLabel, src: Vid, dst: Vid, props: &[(PropKey, Value)]) {
        let mut triples = Vec::new();
        self.edge_triples(label, src, dst, props, &mut triples);
        self.insert_batch(&triples);
    }

    /// Allocate a fresh reified-statement node (used for blank nodes in
    /// `INSERT DATA`).
    pub fn fresh_stmt(&self) -> Term {
        self.inner.write().dict.fresh_stmt()
    }

    /// Number of distinct triples.
    pub fn triple_count(&self) -> usize {
        self.inner.read().triple_count
    }

    /// Approximate resident bytes (all indexes + dictionary).
    pub fn storage_bytes(&self) -> usize {
        let inner = self.inner.read();
        inner.triple_count * 24 * inner.indexes.len() + inner.dict.storage_bytes()
    }

    /// Match a triple pattern (None = wildcard), appending decoded
    /// results. Chooses the best permutation index for the bound
    /// positions, exactly as a triple store's optimizer would.
    pub fn match_pattern(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
        out: &mut Vec<(Term, Term, Term)>,
    ) -> Result<()> {
        let inner = self.inner.read();
        let Some(scan) = inner.scan(s, p, o) else {
            return Ok(()); // an unknown term matches nothing
        };
        let before = out.len();
        for (ks, kp, ko) in scan.triples() {
            out.push((inner.dict.decode(ks)?, inner.dict.decode(kp)?, inner.dict.decode(ko)?));
        }
        note_scanned(out.len() - before);
        Ok(())
    }

    /// How many triples `match_pattern` would return for this pattern,
    /// counted on the same index range without decoding anything, and
    /// never past `cap`: the result is `min(count, cap)`, so a return of
    /// `cap` means "at least `cap`".
    pub fn count_matching(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
        cap: usize,
    ) -> usize {
        let inner = self.inner.read();
        let n = inner.scan(s, p, o).map_or(0, |scan| scan.triples().take(cap).count());
        note_scanned(n);
        n
    }
}

type Key = (TermId, TermId, TermId);

/// One planned index range scan: the permutation with the longest bound
/// prefix, the key range fixing that prefix, and the encoded bound
/// positions every key must match.
struct Scan<'a> {
    perm: Perm,
    set: &'a BTreeSet<Key>,
    lo: Key,
    hi: Key,
    s: Option<TermId>,
    p: Option<TermId>,
    o: Option<TermId>,
}

impl Inner {
    /// Plan the scan for a pattern (None = wildcard). `None` when a bound
    /// term is not in the dictionary, so nothing can match.
    fn scan(&self, s: Option<&Term>, p: Option<&Term>, o: Option<&Term>) -> Option<Scan<'_>> {
        // Outer None = term unknown (no match); inner None = wildcard.
        let enc = |t: Option<&Term>| -> Option<Option<TermId>> {
            match t {
                None => Some(None),
                Some(t) => self.dict.encode_existing(t).map(Some),
            }
        };
        let (s, p, o) = (enc(s)?, enc(p)?, enc(o)?);
        // Pick the permutation with the longest bound prefix.
        let mut best: Option<(Perm, &BTreeSet<Key>, usize)> = None;
        for (perm, set) in &self.indexes {
            let key = perm.pack(
                s.map_or(0, |_| 1),
                p.map_or(0, |_| 2),
                o.map_or(0, |_| 3),
            );
            let prefix = match key {
                (0, _, _) => 0,
                (_, 0, _) => 1,
                (_, _, 0) => 2,
                _ => 3,
            };
            if best.as_ref().map_or(true, |(_, _, b)| prefix > *b) {
                best = Some((*perm, set, prefix));
            }
        }
        let (perm, set, _) = best.expect("at least one index");
        let bound = perm.pack(s.unwrap_or(0), p.unwrap_or(0), o.unwrap_or(0));
        let wild = perm.pack(
            if s.is_some() { 0 } else { 1 },
            if p.is_some() { 0 } else { 1 },
            if o.is_some() { 0 } else { 1 },
        );
        // Range bounds: fix the bound prefix, scan the rest.
        let (lo, hi) = match (wild.0 != 0, wild.1 != 0, wild.2 != 0) {
            (false, false, false) => ((bound.0, bound.1, bound.2), (bound.0, bound.1, bound.2)),
            (false, false, true) => ((bound.0, bound.1, 0), (bound.0, bound.1, u64::MAX)),
            (false, true, true) => ((bound.0, 0, 0), (bound.0, u64::MAX, u64::MAX)),
            _ => ((0, 0, 0), (u64::MAX, u64::MAX, u64::MAX)),
        };
        Some(Scan { perm, set, lo, hi, s, p, o })
    }
}

impl Scan<'_> {
    /// The matching triples in index order, as `(s, p, o)` ids.
    fn triples(&self) -> impl Iterator<Item = Key> + '_ {
        self.set
            .range((Bound::Included(self.lo), Bound::Included(self.hi)))
            .map(|&key| self.perm.unpack(key))
            // Residual checks for positions not covered by the prefix.
            .filter(|&(ks, kp, ko)| {
                self.s.map_or(true, |v| v == ks)
                    && self.p.map_or(true, |v| v == kp)
                    && self.o.map_or(true, |v| v == ko)
            })
    }
}

thread_local! {
    static SCANNED: Cell<u64> = const { Cell::new(0) };
}

fn note_scanned(n: usize) {
    SCANNED.with(|c| c.set(c.get() + n as u64));
}

/// Triples the calling thread's index scans (`match_pattern` and
/// `count_matching`) have produced so far. Monotonic; the difference of
/// two reads around a query is what that query touched in the indexes.
pub fn scanned_triples() -> u64 {
    SCANNED.with(Cell::get)
}

impl Default for TripleStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person(id: u64) -> Term {
        Term::Entity(Vid::new(VertexLabel::Person, id))
    }

    #[test]
    fn insert_is_idempotent() {
        let s = TripleStore::new();
        let p = Term::Pred(edge_pred(EdgeLabel::Knows));
        s.insert(&person(1), &p, &person(2));
        s.insert(&person(1), &p, &person(2));
        assert_eq!(s.triple_count(), 1);
    }

    #[test]
    fn vertex_insertion_expands_to_triples() {
        let s = TripleStore::new();
        s.insert_vertex(
            VertexLabel::Person,
            1,
            &[
                (PropKey::FirstName, Value::str("Ada")),
                (PropKey::Email, Value::List(vec![Value::str("a@x"), Value::str("b@x")])),
            ],
        );
        // type + id + firstName + 2 emails
        assert_eq!(s.triple_count(), 5);
    }

    #[test]
    fn edge_with_props_is_reified_both_ways_for_knows() {
        let s = TripleStore::new();
        s.insert_vertex(VertexLabel::Person, 1, &[]);
        s.insert_vertex(VertexLabel::Person, 2, &[]);
        let before = s.triple_count();
        s.insert_edge(
            EdgeLabel::Knows,
            Vid::new(VertexLabel::Person, 1),
            Vid::new(VertexLabel::Person, 2),
            &[(PropKey::CreationDate, Value::Date(9))],
        );
        // 1 direct + 2 × (type + src + dst + creationDate)
        assert_eq!(s.triple_count() - before, 1 + 2 * 4);
    }

    #[test]
    fn pattern_matching_by_every_binding_combination() {
        let s = TripleStore::new();
        let knows = Term::Pred(edge_pred(EdgeLabel::Knows));
        s.insert(&person(1), &knows, &person(2));
        s.insert(&person(1), &knows, &person(3));
        s.insert(&person(2), &knows, &person(3));
        let mut out = Vec::new();
        s.match_pattern(Some(&person(1)), Some(&knows), None, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        out.clear();
        s.match_pattern(None, Some(&knows), Some(&person(3)), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        out.clear();
        s.match_pattern(None, Some(&knows), None, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        out.clear();
        s.match_pattern(Some(&person(1)), Some(&knows), Some(&person(2)), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        out.clear();
        s.match_pattern(None, None, None, &mut out).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn count_matching_agrees_with_match_pattern_and_stops_at_cap() {
        for cfg in [IndexConfig::Spo, IndexConfig::Three, IndexConfig::Six] {
            let s = TripleStore::with_indexes(cfg);
            let knows = Term::Pred(edge_pred(EdgeLabel::Knows));
            for (a, b) in [(1, 2), (1, 3), (2, 3), (4, 3), (5, 3)] {
                s.insert(&person(a), &knows, &person(b));
            }
            let (p1, p3, nobody) = (person(1), person(3), person(99));
            let bindings = [
                (None, None),
                (Some(&p1), None),
                (None, Some(&p3)),
                (Some(&p1), Some(&p3)),
                (Some(&nobody), None),
            ];
            for (sv, ov) in bindings {
                let mut out = Vec::new();
                s.match_pattern(sv, Some(&knows), ov, &mut out).unwrap();
                let n = out.len();
                assert_eq!(s.count_matching(sv, Some(&knows), ov, usize::MAX), n, "{cfg:?}");
                assert_eq!(s.count_matching(sv, Some(&knows), ov, 2), n.min(2), "{cfg:?}");
            }
        }
    }

    #[test]
    fn unknown_literal_matches_nothing() {
        let s = TripleStore::new();
        s.insert_vertex(VertexLabel::Person, 1, &[(PropKey::FirstName, Value::str("Ada"))]);
        let mut out = Vec::new();
        s.match_pattern(
            None,
            Some(&Term::Pred(prop_pred(PropKey::FirstName))),
            Some(&Term::Lit(Value::str("Nobody"))),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn index_configs_answer_identically() {
        for cfg in [IndexConfig::Spo, IndexConfig::Three, IndexConfig::Six] {
            let s = TripleStore::with_indexes(cfg);
            let knows = Term::Pred(edge_pred(EdgeLabel::Knows));
            s.insert(&person(1), &knows, &person(2));
            s.insert(&person(3), &knows, &person(2));
            let mut out = Vec::new();
            s.match_pattern(None, Some(&knows), Some(&person(2)), &mut out).unwrap();
            assert_eq!(out.len(), 2, "config {cfg:?}");
        }
    }

    #[test]
    fn batched_triples_match_per_triple_insertion() {
        let one = TripleStore::new();
        let batched = TripleStore::new();
        one.insert_vertex(VertexLabel::Person, 1, &[(PropKey::FirstName, Value::str("Ada"))]);
        one.insert_vertex(VertexLabel::Person, 2, &[]);
        one.insert_edge(
            EdgeLabel::Knows,
            Vid::new(VertexLabel::Person, 1),
            Vid::new(VertexLabel::Person, 2),
            &[(PropKey::CreationDate, Value::Date(9))],
        );

        let mut triples = Vec::new();
        TripleStore::vertex_triples(
            VertexLabel::Person,
            1,
            &[(PropKey::FirstName, Value::str("Ada"))],
            &mut triples,
        );
        TripleStore::vertex_triples(VertexLabel::Person, 2, &[], &mut triples);
        batched.edge_triples(
            EdgeLabel::Knows,
            Vid::new(VertexLabel::Person, 1),
            Vid::new(VertexLabel::Person, 2),
            &[(PropKey::CreationDate, Value::Date(9))],
            &mut triples,
        );
        batched.insert_batch(&triples);

        assert_eq!(batched.triple_count(), one.triple_count());
        // Same answers to the same pattern.
        let knows = Term::Pred(edge_pred(EdgeLabel::Knows));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        one.match_pattern(None, Some(&knows), None, &mut a).unwrap();
        batched.match_pattern(None, Some(&knows), None, &mut b).unwrap();
        assert_eq!(a, b);
        // Idempotent like single inserts: re-applying adds nothing.
        let before = batched.triple_count();
        batched.insert_batch(&triples[..3]);
        assert_eq!(batched.triple_count(), before);
    }

    #[test]
    fn storage_grows_with_indexes() {
        let mk = |cfg| {
            let s = TripleStore::with_indexes(cfg);
            for i in 0..100 {
                s.insert_vertex(VertexLabel::Person, i, &[(PropKey::FirstName, Value::str("x"))]);
            }
            s.storage_bytes()
        };
        assert!(mk(IndexConfig::Six) > mk(IndexConfig::Three));
        assert!(mk(IndexConfig::Three) > mk(IndexConfig::Spo));
    }
}
