//! SPARQL execution: BGP translation to index operations, property
//! paths, filters, and the transitivity extension.

use snb_core::{FastMap, FastSet, Result, SnbError, Value};
use std::collections::{HashMap, VecDeque};

use super::ast::*;
use super::SparqlResult;
use crate::store::TripleStore;
use crate::term::{term_to_value, Term};

type Binding = Vec<Option<Term>>;

struct SymTab {
    map: HashMap<String, usize>,
}

impl SymTab {
    fn new() -> Self {
        SymTab { map: HashMap::new() }
    }

    fn slot(&mut self, name: &str) -> usize {
        let next = self.map.len();
        *self.map.entry(name.to_string()).or_insert(next)
    }

    fn lookup(&self, name: &str) -> Result<usize> {
        self.map
            .get(name)
            .copied()
            .ok_or_else(|| SnbError::Plan(format!("unbound variable ?{name}")))
    }
}

fn pat_key(t: &PatTerm) -> Option<String> {
    match t {
        PatTerm::Var(v) => Some(v.clone()),
        PatTerm::Blank(b) => Some(format!("_:{b}")),
        PatTerm::Ground(_) => None,
    }
}

/// Execute a parsed query.
pub fn execute(store: &TripleStore, query: &Query) -> Result<SparqlResult> {
    match query {
        Query::InsertData(triples) => exec_insert(store, triples),
        Query::Transitive { from, to, pred, max } => exec_transitive(store, from, to, *pred, *max),
        Query::Select(q) => exec_select(store, q),
    }
}

fn exec_insert(store: &TripleStore, triples: &[(PatTerm, u64, PatTerm)]) -> Result<SparqlResult> {
    // Blank nodes become fresh statement nodes, scoped to this request.
    let mut blanks: HashMap<String, Term> = HashMap::new();
    let mut resolve = |t: &PatTerm| -> Result<Term> {
        match t {
            PatTerm::Ground(t) => Ok(t.clone()),
            PatTerm::Blank(b) => Ok(blanks.entry(b.clone()).or_insert_with(|| store.fresh_stmt()).clone()),
            PatTerm::Var(_) => Err(SnbError::Plan("variable in INSERT DATA".into())),
        }
    };
    let mut inserted = 0i64;
    for (s, p, o) in triples {
        let s = resolve(s)?;
        let o = resolve(o)?;
        store.insert(&s, &Term::Pred(*p), &o);
        inserted += 1;
    }
    Ok(SparqlResult { columns: vec!["inserted".into()], rows: vec![vec![Value::Int(inserted)]] })
}

fn exec_transitive(
    store: &TripleStore,
    from: &Term,
    to: &Term,
    pred: u64,
    max: u32,
) -> Result<SparqlResult> {
    let columns = vec!["depth".to_string()];
    if from == to {
        return Ok(SparqlResult { columns, rows: vec![vec![Value::Int(0)]] });
    }
    let mut visited: FastSet<Term> = FastSet::from_iter([from.clone()]);
    let mut frontier = VecDeque::from([from.clone()]);
    let mut scratch = Vec::new();
    for depth in 1..=max {
        let mut next = VecDeque::new();
        while let Some(node) = frontier.pop_front() {
            scratch.clear();
            store.match_pattern(Some(&node), Some(&Term::Pred(pred)), None, &mut scratch)?;
            let fwd: Vec<Term> = scratch.iter().map(|(_, _, o)| o.clone()).collect();
            scratch.clear();
            store.match_pattern(None, Some(&Term::Pred(pred)), Some(&node), &mut scratch)?;
            let bwd: Vec<Term> = scratch.iter().map(|(s, _, _)| s.clone()).collect();
            for n in fwd.into_iter().chain(bwd) {
                if &n == to {
                    return Ok(SparqlResult { columns, rows: vec![vec![Value::Int(depth as i64)]] });
                }
                if visited.insert(n.clone()) {
                    next.push_back(n);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    Ok(SparqlResult { columns, rows: Vec::new() })
}

fn exec_select(store: &TripleStore, q: &SelectQuery) -> Result<SparqlResult> {
    // Allocate slots for every variable/blank in pattern order.
    let mut sym = SymTab::new();
    for p in &q.patterns {
        for t in [&p.subject, &p.object] {
            if let Some(k) = pat_key(t) {
                sym.slot(&k);
            }
        }
    }
    let n_slots = sym.map.len();
    let mut rows: Vec<Binding> = vec![vec![None; n_slots]];

    // Greedy pattern ordering: repeatedly evaluate the pattern with the
    // most bound endpoints (ground terms or already-bound variables) —
    // the translation step a triple store's optimizer performs. Ties
    // between ground-anchored patterns go to the fewest index matches.
    let slot_of = |t: &PatTerm| pat_key(t).map(|k| sym.lookup(&k)).transpose();
    let mut remaining: Vec<Pending> = q
        .patterns
        .iter()
        .map(|p| {
            let ends = [slot_of(&p.subject)?, slot_of(&p.object)?];
            Ok(Pending { pattern: p, ends, card: Card::Unknown })
        })
        .collect::<Result<_>>()?;
    let mut bound = vec![false; n_slots];
    let mut tied: Vec<usize> = Vec::new();
    let mut pending_filters: Vec<&FilterExpr> = q.filters.iter().collect();
    while !remaining.is_empty() {
        let bound_var = |end: Option<usize>| end.is_some_and(|s| bound[s]);
        let score = |c: &Pending| -> usize {
            let endpoint = |end: Option<usize>| if end.is_none() || bound_var(end) { 2 } else { 0 };
            endpoint(c.ends[0]) * 2 + endpoint(c.ends[1])
        };
        let top = remaining.iter().map(score).max().expect("remaining non-empty");
        tied.clear();
        tied.extend((0..remaining.len()).filter(|&i| score(&remaining[i]) == top));
        // A quantified path, or a pattern anchored by a bound variable,
        // has no single index count (its cost depends on the reach or on
        // the rows), so any tie with one keeps the plain order: the last
        // tied pattern.
        let countable =
            |c: &Pending| c.pattern.path.quant == (1, 1) && !c.ends.into_iter().any(bound_var);
        let best = if tied.len() > 1 && tied.iter().all(|&i| countable(&remaining[i])) {
            fewest_matches(store, &mut remaining, &tied)
        } else {
            *tied.last().expect("a top score")
        };
        let Pending { pattern, ends, .. } = remaining.swap_remove(best);
        rows = eval_pattern(store, pattern, ends, rows)?;
        for s in ends.into_iter().flatten() {
            bound[s] = true;
        }
        // Apply any filter whose variables are now all bound.
        pending_filters.retain(|f| {
            let ready = f
                .vars()
                .iter()
                .all(|v| sym.lookup(v).is_ok_and(|s| bound[s]));
            if ready {
                rows.retain(|row| eval_filter(f, row, &sym).unwrap_or(false));
            }
            !ready
        });
    }
    if let Some(f) = pending_filters.first() {
        return Err(SnbError::Plan(format!(
            "filter references unbound variables: {:?}",
            f.vars()
        )));
    }

    // Projection.
    match &q.projection {
        Projection::Count { var, distinct } => {
            let count = match var {
                None => rows.len() as i64,
                Some(v) => {
                    let s = sym.lookup(v)?;
                    let vals: Vec<&Term> = rows.iter().filter_map(|r| r[s].as_ref()).collect();
                    if *distinct {
                        vals.into_iter().collect::<FastSet<_>>().len() as i64
                    } else {
                        vals.len() as i64
                    }
                }
            };
            Ok(SparqlResult { columns: vec!["count".into()], rows: vec![vec![Value::Int(count)]] })
        }
        Projection::Vars(vars) => {
            let slots: Vec<usize> = vars.iter().map(|v| sym.lookup(v)).collect::<Result<_>>()?;
            let order_slots: Vec<(usize, bool)> = q
                .order_by
                .iter()
                .map(|(v, asc)| Ok((sym.lookup(v)?, *asc)))
                .collect::<Result<_>>()?;
            let mut projected: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
            for row in &rows {
                let cells: Vec<Value> = slots
                    .iter()
                    .map(|&s| row[s].as_ref().map(term_to_value).unwrap_or(Value::Null))
                    .collect();
                let keys: Vec<Value> = order_slots
                    .iter()
                    .map(|&(s, _)| row[s].as_ref().map(term_to_value).unwrap_or(Value::Null))
                    .collect();
                projected.push((cells, keys));
            }
            if q.distinct {
                let mut seen = FastSet::default();
                projected.retain(|(c, _)| seen.insert(c.clone()));
            }
            if !order_slots.is_empty() {
                projected.sort_by(|(_, ka), (_, kb)| {
                    for (i, &(_, asc)) in order_slots.iter().enumerate() {
                        let ord = cmp_vals(&ka[i], &kb[i]);
                        if ord != std::cmp::Ordering::Equal {
                            return if asc { ord } else { ord.reverse() };
                        }
                    }
                    std::cmp::Ordering::Equal
                });
            }
            if let Some(limit) = q.limit {
                projected.truncate(limit);
            }
            Ok(SparqlResult {
                columns: vars.clone(),
                rows: projected.into_iter().map(|(c, _)| c).collect(),
            })
        }
    }
}

/// A BGP pattern not yet evaluated.
struct Pending<'a> {
    pattern: &'a Pattern,
    /// Subject and object binding slots; `None` for a ground term.
    ends: [Option<usize>; 2],
    card: Card,
}

/// What the planner knows of a ground-anchored pattern's match count.
/// It depends only on the pattern's ground terms, so it is kept for the
/// whole query.
#[derive(Debug, Clone, Copy)]
enum Card {
    Unknown,
    /// Counting stopped at this cap: at least this many matches.
    AtLeast(usize),
    Exact(usize),
}

/// The cap a tie's first counting round stops at; each further round
/// multiplies it by `CAP_GROWTH`.
const FIRST_CAP: usize = 16;
const CAP_GROWTH: usize = 8;

/// Index in `remaining` of the tied pattern with the fewest matches (the
/// last such on equal counts, as the plain order would pick). Counts are
/// capped at the smallest exact count seen plus one, and at a round cap
/// that grows geometrically, so a tie costs O(candidates × the winner's
/// count) index steps whatever the candidates' textual order.
fn fewest_matches(store: &TripleStore, remaining: &mut [Pending], tied: &[usize]) -> usize {
    let mut cap = FIRST_CAP;
    loop {
        let mut best: Option<(usize, usize)> = tied
            .iter()
            .filter_map(|&i| match remaining[i].card {
                Card::Exact(n) => Some((n, i)),
                _ => None,
            })
            .min_by_key(|&(n, _)| n);
        for &i in tied {
            let limit = best.map_or(cap, |(n, _)| cap.min(n + 1));
            let c = &mut remaining[i];
            c.card = match c.card {
                Card::Unknown => count_capped(store, c.pattern, limit),
                Card::AtLeast(a) if a < limit => count_capped(store, c.pattern, limit),
                known => known,
            };
            if let Card::Exact(n) = c.card {
                if best.map_or(true, |(b, _)| n <= b) {
                    best = Some((n, i));
                }
            }
        }
        // Settled once every inexact candidate is known to have more.
        if let Some((n, i)) = best {
            if tied.iter().all(|&j| !matches!(remaining[j].card, Card::AtLeast(a) if a <= n)) {
                return i;
            }
        }
        cap = cap.saturating_mul(CAP_GROWTH);
    }
}

/// A single-hop pattern's match count over its ground terms, summed over
/// its alternation and stopped at `cap`.
fn count_capped(store: &TripleStore, pattern: &Pattern, cap: usize) -> Card {
    fn ground(t: &PatTerm) -> Option<&Term> {
        match t {
            PatTerm::Ground(t) => Some(t),
            _ => None,
        }
    }
    let (s, o) = (ground(&pattern.subject), ground(&pattern.object));
    let mut n = 0;
    for step in &pattern.path.steps {
        let (a, b) = if step.inverse { (o, s) } else { (s, o) };
        n += store.count_matching(a, Some(&Term::Pred(step.pred)), b, cap - n);
        if n == cap {
            return Card::AtLeast(cap);
        }
    }
    Card::Exact(n)
}

fn cmp_vals(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Date(x), Value::Int(y)) | (Value::Int(x), Value::Date(y)) => x.cmp(y),
        _ => a.cmp(b),
    }
}

fn eval_filter(f: &FilterExpr, row: &Binding, sym: &SymTab) -> Result<bool> {
    match f {
        FilterExpr::And(a, b) => Ok(eval_filter(a, row, sym)? && eval_filter(b, row, sym)?),
        FilterExpr::Or(a, b) => Ok(eval_filter(a, row, sym)? || eval_filter(b, row, sym)?),
        FilterExpr::Cmp(a, op, b) => {
            let resolve = |atom: &FilterAtom| -> Result<Value> {
                match atom {
                    FilterAtom::Lit(v) => Ok(v.clone()),
                    FilterAtom::Var(v) => {
                        let s = sym.lookup(v)?;
                        Ok(row[s].as_ref().map(term_to_value).unwrap_or(Value::Null))
                    }
                }
            };
            let (av, bv) = (resolve(a)?, resolve(b)?);
            if av.is_null() || bv.is_null() {
                return Ok(false);
            }
            let ord = cmp_vals(&av, &bv);
            Ok(match op {
                FilterOp::Eq => ord.is_eq(),
                FilterOp::Ne => !ord.is_eq(),
                FilterOp::Lt => ord.is_lt(),
                FilterOp::Le => !ord.is_gt(),
                FilterOp::Gt => ord.is_gt(),
                FilterOp::Ge => !ord.is_lt(),
            })
        }
    }
}

/// Neighbours of `node` over one application of the path's step
/// alternation.
fn step_neighbors(store: &TripleStore, node: &Term, steps: &[PathStep], out: &mut Vec<Term>) -> Result<()> {
    let mut scratch = Vec::new();
    for step in steps {
        scratch.clear();
        if step.inverse {
            store.match_pattern(None, Some(&Term::Pred(step.pred)), Some(node), &mut scratch)?;
            out.extend(scratch.iter().map(|(s, _, _)| s.clone()));
        } else {
            store.match_pattern(Some(node), Some(&Term::Pred(step.pred)), None, &mut scratch)?;
            out.extend(scratch.iter().map(|(_, _, o)| o.clone()));
        }
    }
    Ok(())
}

fn eval_pattern(
    store: &TripleStore,
    pattern: &Pattern,
    [s_slot, o_slot]: [Option<usize>; 2],
    rows: Vec<Binding>,
) -> Result<Vec<Binding>> {
    let term_of = |t: &PatTerm, slot: Option<usize>, row: &Binding| -> Option<Term> {
        match t {
            PatTerm::Ground(t) => Some(t.clone()),
            _ => slot.and_then(|s| row[s].clone()),
        }
    };
    let mut out = Vec::new();
    if pattern.path.quant == (1, 1) {
        // Single hop: may run with both, one, or neither endpoint bound.
        for row in rows {
            let s_term = term_of(&pattern.subject, s_slot, &row);
            let o_term = term_of(&pattern.object, o_slot, &row);
            let mut matches: Vec<(Term, Term)> = Vec::new();
            let mut scratch = Vec::new();
            for step in &pattern.path.steps {
                scratch.clear();
                let (a, b) = if step.inverse {
                    (o_term.clone(), s_term.clone())
                } else {
                    (s_term.clone(), o_term.clone())
                };
                store.match_pattern(a.as_ref(), Some(&Term::Pred(step.pred)), b.as_ref(), &mut scratch)?;
                for (ms, _, mo) in &scratch {
                    if step.inverse {
                        matches.push((mo.clone(), ms.clone()));
                    } else {
                        matches.push((ms.clone(), mo.clone()));
                    }
                }
            }
            for (ms, mo) in matches {
                let mut new_row = row.clone();
                if let Some(s) = s_slot {
                    new_row[s] = Some(ms.clone());
                }
                if let Some(o) = o_slot {
                    new_row[o] = Some(mo.clone());
                }
                out.push(new_row);
            }
        }
        return Ok(out);
    }

    // Quantified path: BFS from whichever endpoint is bound.
    let (min, max) = pattern.path.quant;
    for row in rows {
        let s_term = term_of(&pattern.subject, s_slot, &row);
        let o_term = term_of(&pattern.object, o_slot, &row);
        let (start, steps, target, target_slot) = match (&s_term, &o_term) {
            (Some(s), _) => (s.clone(), pattern.path.steps.to_vec(), o_term.clone(), o_slot),
            (None, Some(o)) => {
                // Walk backwards with inverted steps.
                let inv: Vec<PathStep> = pattern
                    .path
                    .steps
                    .iter()
                    .map(|st| PathStep { pred: st.pred, inverse: !st.inverse })
                    .collect();
                (o.clone(), inv, None, s_slot)
            }
            (None, None) => {
                return Err(SnbError::Plan(
                    "quantified path needs at least one bound endpoint".into(),
                ))
            }
        };
        // BFS collecting distinct nodes with min ≤ depth ≤ max.
        let mut dist: FastMap<Term, u32> = FastMap::from_iter([(start.clone(), 0)]);
        let mut queue: VecDeque<(Term, u32)> = VecDeque::from([(start, 0)]);
        let mut neighbors = Vec::new();
        while let Some((node, d)) = queue.pop_front() {
            if d >= max {
                continue;
            }
            neighbors.clear();
            step_neighbors(store, &node, &steps, &mut neighbors)?;
            for n in neighbors.drain(..) {
                if !dist.contains_key(&n) {
                    dist.insert(n.clone(), d + 1);
                    queue.push_back((n, d + 1));
                }
            }
        }
        for (node, d) in dist {
            if d < min || d > max {
                continue;
            }
            if let Some(t) = &target {
                if t != &node {
                    continue;
                }
            }
            let mut new_row = row.clone();
            if let Some(s) = target_slot {
                new_row[s] = Some(node.clone());
            }
            out.push(new_row);
        }
    }
    Ok(out)
}
