//! SQL execution: join planning, semi-naive recursion, aggregation, and
//! the column-store `TRANSITIVE` operator.
//!
//! Join strategy is layout-dependent, which is what makes the row- and
//! column-store engines behave like their real counterparts:
//!
//! * **Row layout**: index-nested-loop joins, one probe per
//!   intermediate row. Unbeatable for short point lookups and 1-hop
//!   expansions, linear in the intermediate size for multi-hop joins.
//! * **Column layout**: batch joins — distinct join keys are collected
//!   from the whole intermediate, probed once each, and matched back
//!   via a hash table. Slightly more setup per query, far fewer probes
//!   when a two-hop frontier revisits the same keys.

use snb_core::{Result, SnbError, Value};
use std::collections::{HashMap, HashSet};

use super::ast::*;
use super::planner::{BfsSpec, JoinSchedule, SqlPlanEntry};
use super::SqlResult;
use crate::catalog::ColType;
use crate::database::{Database, Layout};
use crate::table::Table;

/// A materialized intermediate relation (CTE working table).
#[derive(Debug, Clone, Default)]
pub(crate) struct Materialized {
    cols: Vec<String>,
    rows: Vec<Vec<Value>>,
}

type Env<'a> = HashMap<String, &'a Materialized>;

/// Execute a parsed statement on the executor's built-in heuristics.
pub fn execute(db: &Database, stmt: &Stmt, params: &[Value]) -> Result<SqlResult> {
    match stmt {
        Stmt::Select(sel) => exec_select(db, sel, params, &Env::new()),
        Stmt::Insert { table, cols, values } => exec_insert(db, table, cols.as_deref(), values, params),
        Stmt::Update { table, sets, filter } => exec_update(db, table, sets, filter, params),
        Stmt::WithRecursive { name, cols, body, tail } => {
            exec_with_recursive(db, name, cols, body, tail, params, &[])
        }
        Stmt::Transitive { table, from, to, max, directed } => {
            exec_transitive(db, table, from, to, *max, *directed, params)
        }
    }
}

/// Execute a cached plan entry: join schedules from the optimizer drive
/// source ordering, and a detected reach-shaped recursive CTE runs as a
/// BFS over the edge table's indexes instead of semi-naive iteration.
pub(crate) fn execute_planned(
    db: &Database,
    entry: &SqlPlanEntry,
    params: &[Value],
) -> Result<SqlResult> {
    match &entry.stmt {
        Stmt::Select(sel) => exec_select_sched(db, sel, params, &Env::new(), &entry.schedules),
        Stmt::WithRecursive { name, cols, body, tail } => {
            if let Some(spec) = &entry.bfs {
                exec_reach_bfs(db, spec, params)
            } else {
                exec_with_recursive(db, name, cols, body, tail, params, &entry.schedules)
            }
        }
        other => execute(db, other, params),
    }
}

fn const_eval(expr: &Expr, params: &[Value]) -> Result<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Param(n) => params
            .get(n - 1)
            .cloned()
            .ok_or_else(|| SnbError::Plan(format!("missing parameter ${n}"))),
        Expr::Add(a, b) => arith(const_eval(a, params)?, const_eval(b, params)?, false),
        Expr::Sub(a, b) => arith(const_eval(a, params)?, const_eval(b, params)?, true),
        other => Err(SnbError::Plan(format!("expected constant expression, got {other:?}"))),
    }
}

fn arith(a: Value, b: Value, sub: bool) -> Result<Value> {
    let (x, y) = match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => (x, y),
        _ => return Err(SnbError::Exec("arithmetic on non-integers".into())),
    };
    Ok(Value::Int(if sub { x - y } else { x + y }))
}

/// Compare treating `Date` and `Int` as one numeric domain.
fn cmp_vals(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Date(x), Value::Int(y)) | (Value::Int(x), Value::Date(y)) => x.cmp(y),
        _ => a.cmp(b),
    }
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

/// Column-resolved expression.
#[derive(Debug, Clone)]
enum RExpr {
    Slot(usize),
    Lit(Value),
    Param(usize),
    Cmp(Box<RExpr>, CmpOp, Box<RExpr>),
    And(Box<RExpr>, Box<RExpr>),
    Or(Box<RExpr>, Box<RExpr>),
    Not(Box<RExpr>),
    Add(Box<RExpr>, Box<RExpr>),
    Sub(Box<RExpr>, Box<RExpr>),
    Agg(AggKind, Option<Box<RExpr>>, bool),
}

impl RExpr {
    fn eval(&self, row: &[Value], params: &[Value]) -> Result<Value> {
        match self {
            RExpr::Slot(s) => Ok(row[*s].clone()),
            RExpr::Lit(v) => Ok(v.clone()),
            RExpr::Param(n) => params
                .get(n - 1)
                .cloned()
                .ok_or_else(|| SnbError::Plan(format!("missing parameter ${n}"))),
            RExpr::Cmp(a, op, b) => {
                let (a, b) = (a.eval(row, params)?, b.eval(row, params)?);
                if a.is_null() || b.is_null() {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(op.eval(cmp_vals(&a, &b))))
            }
            RExpr::And(a, b) => Ok(Value::Bool(
                truthy(&a.eval(row, params)?) && truthy(&b.eval(row, params)?),
            )),
            RExpr::Or(a, b) => Ok(Value::Bool(
                truthy(&a.eval(row, params)?) || truthy(&b.eval(row, params)?),
            )),
            RExpr::Not(e) => Ok(Value::Bool(!truthy(&e.eval(row, params)?))),
            RExpr::Add(a, b) => arith(a.eval(row, params)?, b.eval(row, params)?, false),
            RExpr::Sub(a, b) => arith(a.eval(row, params)?, b.eval(row, params)?, true),
            RExpr::Agg(..) => Err(SnbError::Plan("aggregate evaluated per-row".into())),
        }
    }

    fn is_aggregate(&self) -> bool {
        match self {
            RExpr::Agg(..) => true,
            RExpr::Cmp(a, _, b)
            | RExpr::And(a, b)
            | RExpr::Or(a, b)
            | RExpr::Add(a, b)
            | RExpr::Sub(a, b) => a.is_aggregate() || b.is_aggregate(),
            RExpr::Not(e) => e.is_aggregate(),
            _ => false,
        }
    }
}

fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// One source relation in a core's FROM list: a view into either a
/// locked database table or a materialized CTE relation.
#[derive(Clone, Copy)]
enum Source<'a> {
    Db(&'a Table),
    Mat(&'a Materialized),
}

impl Source<'_> {
    fn n_cols(&self) -> usize {
        match self {
            Source::Db(t) => t.def.arity(),
            Source::Mat(m) => m.cols.len(),
        }
    }

    fn col(&self, name: &str) -> Option<usize> {
        match self {
            Source::Db(t) => t.def.cols.iter().position(|(c, _)| c == name),
            Source::Mat(m) => m.cols.iter().position(|c| c == name),
        }
    }

    fn col_name(&self, ix: usize) -> String {
        match self {
            Source::Db(t) => t.def.cols[ix].0.clone(),
            Source::Mat(m) => m.cols[ix].clone(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Source::Db(t) => t.len(),
            Source::Mat(m) => m.rows.len(),
        }
    }

    fn has_index(&self, col: usize) -> bool {
        match self {
            Source::Db(t) => t.has_index(col),
            Source::Mat(_) => false,
        }
    }

    fn row(&self, r: u32) -> Vec<Value> {
        match self {
            Source::Db(t) => t.row(r),
            Source::Mat(m) => m.rows[r as usize].clone(),
        }
    }

    fn find(&self, col: usize, value: &Value, out: &mut Vec<u32>) {
        match self {
            Source::Db(t) => t.find(col, value, out),
            Source::Mat(m) => {
                for (r, row) in m.rows.iter().enumerate() {
                    if cmp_vals(&row[col], value) == std::cmp::Ordering::Equal {
                        out.push(r as u32);
                    }
                }
            }
        }
    }
}

/// Read guards of the distinct tables a core touches. Self-joins share
/// one guard — taking a second fair read guard on the same lock would
/// deadlock against a queued writer, and an unfair recursive guard
/// would starve writers under closed-loop readers.
struct TableGuards<'a> {
    guards: Vec<(String, parking_lot::RwLockReadGuard<'a, Table>)>,
}

impl<'a> TableGuards<'a> {
    fn acquire(db: &'a Database, core: &SelectCore, env: &Env<'a>) -> Result<Self> {
        let mut names: Vec<&str> = vec![&core.from.table];
        names.extend(core.joins.iter().map(|(t, _)| t.table.as_str()));
        // Deterministic acquisition order prevents ABBA deadlocks between
        // concurrent multi-table queries.
        names.sort_unstable();
        names.dedup();
        let mut guards = Vec::with_capacity(names.len());
        for name in names {
            if env.contains_key(name) {
                continue;
            }
            guards.push((name.to_string(), db.table(name)?.read()));
        }
        Ok(TableGuards { guards })
    }

    fn get(&self, name: &str) -> Option<&Table> {
        self.guards.iter().find(|(n, _)| n == name).map(|(_, g)| &**g)
    }
}

struct CorePlan<'a> {
    sources: Vec<Source<'a>>,
    aliases: Vec<String>,
    offsets: Vec<usize>,
    total_cols: usize,
}

impl<'a> CorePlan<'a> {
    fn build(
        guards: &'a TableGuards<'a>,
        core: &SelectCore,
        env: &Env<'a>,
    ) -> Result<Self> {
        let mut refs = vec![core.from.clone()];
        refs.extend(core.joins.iter().map(|(t, _)| t.clone()));
        let mut sources = Vec::with_capacity(refs.len());
        let mut aliases = Vec::with_capacity(refs.len());
        for r in &refs {
            if let Some(m) = env.get(&r.table) {
                sources.push(Source::Mat(m));
            } else {
                let table = guards
                    .get(&r.table)
                    .ok_or_else(|| SnbError::Plan(format!("unknown table `{}`", r.table)))?;
                sources.push(Source::Db(table));
            }
            if aliases.contains(&r.alias) {
                return Err(SnbError::Plan(format!("duplicate alias `{}`", r.alias)));
            }
            aliases.push(r.alias.clone());
        }
        let mut offsets = Vec::with_capacity(sources.len());
        let mut total = 0;
        for s in &sources {
            offsets.push(total);
            total += s.n_cols();
        }
        Ok(CorePlan { sources, aliases, offsets, total_cols: total })
    }

    /// Resolve `alias.col` / bare `col` to a global slot.
    fn resolve_col(&self, alias: &str, col: &str) -> Result<(usize, usize)> {
        if alias.is_empty() {
            let mut hit = None;
            for (i, s) in self.sources.iter().enumerate() {
                if let Some(c) = s.col(col) {
                    if hit.is_some() {
                        return Err(SnbError::Plan(format!("ambiguous column `{col}`")));
                    }
                    hit = Some((i, c));
                }
            }
            hit.ok_or_else(|| SnbError::Plan(format!("unknown column `{col}`")))
        } else {
            let i = self
                .aliases
                .iter()
                .position(|a| a == alias)
                .ok_or_else(|| SnbError::Plan(format!("unknown alias `{alias}`")))?;
            let c = self.sources[i]
                .col(col)
                .ok_or_else(|| SnbError::Plan(format!("no column `{col}` in `{alias}`")))?;
            Ok((i, c))
        }
    }

    fn resolve(&self, e: &Expr, touched: &mut HashSet<usize>) -> Result<RExpr> {
        Ok(match e {
            Expr::Col(a, c) => {
                let (src, col) = self.resolve_col(a, c)?;
                touched.insert(src);
                RExpr::Slot(self.offsets[src] + col)
            }
            Expr::Param(n) => RExpr::Param(*n),
            Expr::Lit(v) => RExpr::Lit(v.clone()),
            Expr::Cmp(a, op, b) => RExpr::Cmp(
                Box::new(self.resolve(a, touched)?),
                *op,
                Box::new(self.resolve(b, touched)?),
            ),
            Expr::And(a, b) => RExpr::And(
                Box::new(self.resolve(a, touched)?),
                Box::new(self.resolve(b, touched)?),
            ),
            Expr::Or(a, b) => RExpr::Or(
                Box::new(self.resolve(a, touched)?),
                Box::new(self.resolve(b, touched)?),
            ),
            Expr::Not(e) => RExpr::Not(Box::new(self.resolve(e, touched)?)),
            Expr::Add(a, b) => RExpr::Add(
                Box::new(self.resolve(a, touched)?),
                Box::new(self.resolve(b, touched)?),
            ),
            Expr::Sub(a, b) => RExpr::Sub(
                Box::new(self.resolve(a, touched)?),
                Box::new(self.resolve(b, touched)?),
            ),
            Expr::Agg(k, inner, d) => {
                let inner = match inner {
                    Some(e) => Some(Box::new(self.resolve(e, touched)?)),
                    None => None,
                };
                RExpr::Agg(*k, inner, *d)
            }
        })
    }

    /// Copy a source row into the global row layout.
    fn splice(&self, row: &mut [Value], src: usize, data: &[Value]) {
        let off = self.offsets[src];
        row[off..off + data.len()].clone_from_slice(data);
    }
}

/// Classified conjuncts of a core's predicates.
struct Conjunct {
    rexpr: RExpr,
    refs: HashSet<usize>,
    /// `Some((src, col, const))` when of the form `alias.col = <const>`.
    bind: Option<(usize, usize, RExpr)>,
    /// `Some((srcA, colA, srcB, colB))` when of the form `a.x = b.y`.
    join: Option<(usize, usize, usize, usize)>,
}

fn exec_core_sched(
    db: &Database,
    core: &SelectCore,
    params: &[Value],
    env: &Env<'_>,
    sched: Option<&JoinSchedule>,
) -> Result<Materialized> {
    let guards = TableGuards::acquire(db, core, env)?;
    let plan = CorePlan::build(&guards, core, env)?;
    let n_sources = plan.sources.len();

    // Gather all conjuncts (WHERE + every JOIN ... ON).
    let mut raw: Vec<&Expr> = Vec::new();
    if let Some(f) = &core.filter {
        raw.extend(f.conjuncts());
    }
    for (_, on) in &core.joins {
        raw.extend(on.conjuncts());
    }
    let mut conjuncts = Vec::with_capacity(raw.len());
    for e in raw {
        let mut refs = HashSet::new();
        let rexpr = plan.resolve(e, &mut refs)?;
        let mut bind = None;
        let mut join = None;
        if let Expr::Cmp(a, CmpOp::Eq, b) = e {
            let col_of = |x: &Expr| match x {
                Expr::Col(al, c) => plan.resolve_col(al, c).ok(),
                _ => None,
            };
            let is_const = |x: &Expr| !matches!(x, Expr::Col(..)) && const_eval(x, params).is_ok();
            match (col_of(a), col_of(b)) {
                (Some((s1, c1)), Some((s2, c2))) if s1 != s2 => join = Some((s1, c1, s2, c2)),
                (Some((s, c)), None) if is_const(b) => {
                    let mut t = HashSet::new();
                    bind = Some((s, c, plan.resolve(b, &mut t)?));
                }
                (None, Some((s, c))) if is_const(a) => {
                    let mut t = HashSet::new();
                    bind = Some((s, c, plan.resolve(a, &mut t)?));
                }
                _ => {}
            }
        }
        conjuncts.push(Conjunct { rexpr, refs, bind, join });
    }

    // A valid schedule from the optimizer (a permutation of the source
    // indexes) overrides the heuristics below; anything else is ignored.
    let order: Option<&[usize]> = sched
        .map(|s| s.order.as_slice())
        .filter(|o| {
            o.len() == n_sources && {
                let mut hit = vec![false; n_sources];
                o.iter().all(|&i| i < n_sources && !std::mem::replace(&mut hit[i], true))
            }
        });

    // Pick the starting source: scheduled seed, else indexed bind
    // predicate > any bind predicate > smallest relation.
    let start = order.map(|o| o[0]).unwrap_or_else(|| {
        conjuncts
            .iter()
            .filter_map(|c| c.bind.as_ref())
            .filter(|(s, c, _)| plan.sources[*s].has_index(*c))
            .map(|(s, _, _)| *s)
            .next()
            .or_else(|| conjuncts.iter().filter_map(|c| c.bind.as_ref()).map(|(s, _, _)| *s).next())
            .unwrap_or_else(|| {
                (0..n_sources).min_by_key(|&s| plan.sources[s].len()).unwrap_or(0)
            })
    });

    // Seed rows from the starting source.
    let mut bound: HashSet<usize> = HashSet::from([start]);
    let mut rows: Vec<Vec<Value>> = Vec::new();
    {
        let src = &plan.sources[start];
        let start_binds: Vec<_> = conjuncts
            .iter()
            .filter_map(|c| c.bind.as_ref())
            .filter(|(s, _, _)| *s == start)
            .collect();
        let row_ids: Vec<u32> = if let Some((_, col, val)) = start_binds.first() {
            let v = val.eval(&[], params)?;
            let mut out = Vec::new();
            src.find(*col, &v, &mut out);
            out
        } else {
            (0..src.len() as u32).collect()
        };
        for r in row_ids {
            let data = src.row(r);
            let mut row = vec![Value::Null; plan.total_cols];
            plan.splice(&mut row, start, &data);
            rows.push(row);
        }
    }
    let mut applied: HashSet<usize> = HashSet::new();
    apply_ready_filters(&plan, &conjuncts, &bound, &mut applied, &mut rows, params)?;

    // Join in the remaining sources.
    let mut pos = 1;
    while bound.len() < n_sources {
        // A schedule pins which source joins next; otherwise the first
        // join predicate connecting a new source to the bound set wins.
        let target = match order {
            Some(o) => {
                let t = o[pos];
                pos += 1;
                Some(t)
            }
            None => None,
        };
        let next = conjuncts
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| c.join.map(|j| (ci, j)))
            .find_map(|(ci, (s1, c1, s2, c2))| {
                let want = |n: usize| target.map_or(true, |t| n == t);
                if bound.contains(&s1) && !bound.contains(&s2) && want(s2) {
                    Some((ci, s1, c1, s2, c2))
                } else if bound.contains(&s2) && !bound.contains(&s1) && want(s1) {
                    Some((ci, s2, c2, s1, c1))
                } else {
                    None
                }
            });
        match next {
            Some((ci, bsrc, bcol, nsrc, ncol)) => {
                applied.insert(ci);
                let key_slot = plan.offsets[bsrc] + bcol;
                let src = &plan.sources[nsrc];
                let use_batch = db.layout() == Layout::Column || !src.has_index(ncol);
                let mut joined = Vec::new();
                // `NULL` equals nothing, so a NULL key joins no row.
                rows.retain(|row| !row[key_slot].is_null());
                if use_batch {
                    // Batch join: one probe per distinct key.
                    let mut matches: HashMap<Value, Vec<u32>> = HashMap::new();
                    for row in &rows {
                        matches.entry(row[key_slot].clone()).or_default();
                    }
                    if src.has_index(ncol) {
                        for (key, ids) in matches.iter_mut() {
                            src.find(ncol, key, ids);
                        }
                    } else {
                        // No index: build a hash table over the new source.
                        let mut table: HashMap<Value, Vec<u32>> = HashMap::new();
                        for r in 0..src.len() as u32 {
                            let row = src.row(r);
                            table.entry(row[ncol].clone()).or_default().push(r);
                        }
                        for (key, ids) in matches.iter_mut() {
                            if let Some(rs) = table.get(key) {
                                ids.extend_from_slice(rs);
                            }
                        }
                    }
                    for row in rows.drain(..) {
                        if let Some(ids) = matches.get(&row[key_slot]) {
                            for &r in ids {
                                let mut new_row = row.clone();
                                plan.splice(&mut new_row, nsrc, &src.row(r));
                                joined.push(new_row);
                            }
                        }
                    }
                } else {
                    // Index-nested-loop: one probe per intermediate row.
                    let mut ids = Vec::new();
                    for row in rows.drain(..) {
                        ids.clear();
                        src.find(ncol, &row[key_slot], &mut ids);
                        for &r in &ids {
                            let mut new_row = row.clone();
                            plan.splice(&mut new_row, nsrc, &src.row(r));
                            joined.push(new_row);
                        }
                    }
                }
                rows = joined;
                bound.insert(nsrc);
            }
            None => {
                // Cartesian with the scheduled target, else the
                // smallest unbound source.
                let nsrc = target.unwrap_or_else(|| {
                    (0..n_sources)
                        .filter(|s| !bound.contains(s))
                        .min_by_key(|&s| plan.sources[s].len())
                        .expect("loop condition guarantees an unbound source")
                });
                let src = &plan.sources[nsrc];
                let mut joined = Vec::with_capacity(rows.len() * src.len().max(1));
                for row in rows.drain(..) {
                    for r in 0..src.len() as u32 {
                        let mut new_row = row.clone();
                        plan.splice(&mut new_row, nsrc, &src.row(r));
                        joined.push(new_row);
                    }
                }
                rows = joined;
                bound.insert(nsrc);
            }
        }
        apply_ready_filters(&plan, &conjuncts, &bound, &mut applied, &mut rows, params)?;
    }

    // Projection and aggregation.
    let items: Vec<(RExpr, String)> = if core.items.is_empty() {
        // SELECT *
        let mut out = Vec::new();
        for (i, s) in plan.sources.iter().enumerate() {
            for c in 0..s.n_cols() {
                out.push((RExpr::Slot(plan.offsets[i] + c), s.col_name(c)));
            }
        }
        out
    } else {
        let mut out = Vec::new();
        for (e, name) in &core.items {
            let mut t = HashSet::new();
            out.push((plan.resolve(e, &mut t)?, name.clone()));
        }
        out
    };
    let columns: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
    let has_agg = items.iter().any(|(e, _)| e.is_aggregate());
    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    if has_agg {
        out_rows = aggregate(&items, &rows, params)?;
    } else {
        out_rows.reserve(rows.len());
        for row in &rows {
            let mut cells = Vec::with_capacity(items.len());
            for (e, _) in &items {
                cells.push(e.eval(row, params)?);
            }
            out_rows.push(cells);
        }
    }
    if core.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|r| seen.insert(r.clone()));
    }
    Ok(Materialized { cols: columns, rows: out_rows })
}

fn apply_ready_filters(
    plan: &CorePlan<'_>,
    conjuncts: &[Conjunct],
    bound: &HashSet<usize>,
    applied: &mut HashSet<usize>,
    rows: &mut Vec<Vec<Value>>,
    params: &[Value],
) -> Result<()> {
    let _ = plan;
    for (ci, c) in conjuncts.iter().enumerate() {
        if applied.contains(&ci) || !c.refs.is_subset(bound) {
            continue;
        }
        applied.insert(ci);
        let mut err = None;
        rows.retain(|row| match c.rexpr.eval(row, params) {
            Ok(v) => truthy(&v),
            Err(e) => {
                err = Some(e);
                false
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(())
}

/// Whole-set aggregation with implicit grouping on non-aggregate items.
fn aggregate(
    items: &[(RExpr, String)],
    rows: &[Vec<Value>],
    params: &[Value],
) -> Result<Vec<Vec<Value>>> {
    #[derive(Default)]
    struct Acc {
        count: u64,
        distinct: HashSet<Value>,
        min: Option<Value>,
        max: Option<Value>,
        sum: i64,
        n: u64,
    }
    struct Group {
        keys: Vec<Value>,
        accs: Vec<Acc>,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    for row in rows {
        let mut keys = Vec::new();
        for (e, _) in items {
            if !e.is_aggregate() {
                keys.push(e.eval(row, params)?);
            }
        }
        let gi = *index.entry(keys.clone()).or_insert_with(|| {
            groups.push(Group { keys, accs: items.iter().map(|_| Acc::default()).collect() });
            groups.len() - 1
        });
        for (i, (e, _)) in items.iter().enumerate() {
            if let RExpr::Agg(kind, inner, distinct) = e {
                let acc = &mut groups[gi].accs[i];
                match inner {
                    None => acc.count += 1,
                    Some(inner) => {
                        let v = inner.eval(row, params)?;
                        if v.is_null() {
                            continue;
                        }
                        if *distinct {
                            acc.distinct.insert(v.clone());
                        }
                        acc.count += 1;
                        acc.n += 1;
                        if let Some(x) = v.as_int() {
                            acc.sum += x;
                        }
                        if acc.min.as_ref().map_or(true, |m| cmp_vals(&v, m).is_lt()) {
                            acc.min = Some(v.clone());
                        }
                        if acc.max.as_ref().map_or(true, |m| cmp_vals(&v, m).is_gt()) {
                            acc.max = Some(v);
                        }
                        let _ = kind;
                    }
                }
            }
        }
    }
    // Aggregates over empty input with no group keys yield one row.
    if groups.is_empty() && items.iter().all(|(e, _)| e.is_aggregate()) {
        let cells = items
            .iter()
            .map(|(e, _)| match e {
                RExpr::Agg(AggKind::Count, ..) => Value::Int(0),
                _ => Value::Null,
            })
            .collect();
        return Ok(vec![cells]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for g in groups {
        let mut cells = Vec::with_capacity(items.len());
        let mut key_ix = 0;
        for (i, (e, _)) in items.iter().enumerate() {
            match e {
                RExpr::Agg(kind, _, distinct) => {
                    let acc = &g.accs[i];
                    let v = match kind {
                        AggKind::Count => {
                            if *distinct {
                                Value::Int(acc.distinct.len() as i64)
                            } else {
                                Value::Int(acc.count as i64)
                            }
                        }
                        AggKind::Min => acc.min.clone().unwrap_or(Value::Null),
                        AggKind::Max => acc.max.clone().unwrap_or(Value::Null),
                        AggKind::Sum => Value::Int(acc.sum),
                        AggKind::Avg => {
                            if acc.n == 0 {
                                Value::Null
                            } else {
                                Value::Float(acc.sum as f64 / acc.n as f64)
                            }
                        }
                    };
                    cells.push(v);
                }
                _ => {
                    cells.push(g.keys[key_ix].clone());
                    key_ix += 1;
                }
            }
        }
        out.push(cells);
    }
    Ok(out)
}

fn exec_select(
    db: &Database,
    sel: &SelectStmt,
    params: &[Value],
    env: &Env<'_>,
) -> Result<SqlResult> {
    exec_select_sched(db, sel, params, env, &[])
}

/// `exec_select` with one optional join schedule per core, aligned
/// positionally (missing/short slices fall back to the heuristics).
fn exec_select_sched(
    db: &Database,
    sel: &SelectStmt,
    params: &[Value],
    env: &Env<'_>,
    scheds: &[Option<JoinSchedule>],
) -> Result<SqlResult> {
    let mut result: Option<Materialized> = None;
    for (i, core) in sel.cores.iter().enumerate() {
        let m = exec_core_sched(db, core, params, env, scheds.get(i).and_then(|s| s.as_ref()))?;
        match &mut result {
            None => result = Some(m),
            Some(acc) => {
                if acc.cols.len() != m.cols.len() {
                    return Err(SnbError::Plan("UNION arms have different arity".into()));
                }
                acc.rows.extend(m.rows);
            }
        }
    }
    let mut result = result.ok_or_else(|| SnbError::Plan("empty select".into()))?;
    if sel.cores.len() > 1 && !sel.union_all {
        let mut seen = HashSet::new();
        result.rows.retain(|r| seen.insert(r.clone()));
    }
    if !sel.order_by.is_empty() {
        let mut keys = Vec::with_capacity(sel.order_by.len());
        for (k, asc) in &sel.order_by {
            let ix = match k {
                OrderKey::Position(p) => {
                    if *p == 0 || *p > result.cols.len() {
                        return Err(SnbError::Plan(format!("ORDER BY position {p} out of range")));
                    }
                    p - 1
                }
                OrderKey::Name(n) => result
                    .cols
                    .iter()
                    .position(|c| c == n || c.ends_with(&format!(".{n}")))
                    .ok_or_else(|| SnbError::Plan(format!("unknown ORDER BY column `{n}`")))?,
            };
            keys.push((ix, *asc));
        }
        let cmp = |a: &Vec<Value>, b: &Vec<Value>| {
            for (ix, asc) in &keys {
                let ord = cmp_vals(&a[*ix], &b[*ix]);
                if ord != std::cmp::Ordering::Equal {
                    return if *asc { ord } else { ord.reverse() };
                }
            }
            std::cmp::Ordering::Equal
        };
        match sel.limit {
            // Bounded-heap top-k for ORDER BY + LIMIT; same rows (and
            // tie order) as the stable sort + truncate it replaces.
            Some(limit) => result.rows = snb_core::top_k_by(std::mem::take(&mut result.rows), limit, cmp),
            None => result.rows.sort_by(cmp),
        }
    } else if let Some(limit) = sel.limit {
        result.rows.truncate(limit);
    }
    Ok(SqlResult { columns: result.cols, rows: result.rows })
}

// ---------------------------------------------------------------------------
// WITH RECURSIVE (semi-naive, set semantics)
// ---------------------------------------------------------------------------

fn references_cte(core: &SelectCore, name: &str) -> bool {
    core.from.table == name || core.joins.iter().any(|(t, _)| t.table == name)
}

fn exec_with_recursive(
    db: &Database,
    name: &str,
    cols: &[String],
    body: &SelectStmt,
    tail: &SelectStmt,
    params: &[Value],
    scheds: &[Option<JoinSchedule>],
) -> Result<SqlResult> {
    const MAX_ITERATIONS: usize = 128;
    if !body.order_by.is_empty() || body.limit.is_some() {
        return Err(SnbError::Plan("ORDER BY/LIMIT not allowed in recursive body".into()));
    }
    // Schedule slots align to body cores by position, then tail cores.
    let core_sched =
        |i: usize| -> Option<&JoinSchedule> { scheds.get(i).and_then(|s| s.as_ref()) };
    let base: Vec<(usize, &SelectCore)> =
        body.cores.iter().enumerate().filter(|(_, c)| !references_cte(c, name)).collect();
    let recursive: Vec<(usize, &SelectCore)> =
        body.cores.iter().enumerate().filter(|(_, c)| references_cte(c, name)).collect();
    if base.is_empty() {
        return Err(SnbError::Plan("recursive CTE needs a non-recursive arm".into()));
    }

    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut total = Materialized { cols: cols.to_vec(), rows: Vec::new() };
    let mut delta = Materialized { cols: cols.to_vec(), rows: Vec::new() };
    for (i, core) in &base {
        let m = exec_core_sched(db, core, params, &Env::new(), core_sched(*i))?;
        if m.cols.len() != cols.len() {
            return Err(SnbError::Plan("CTE arm arity mismatch".into()));
        }
        for row in m.rows {
            if seen.insert(row.clone()) {
                total.rows.push(row.clone());
                delta.rows.push(row);
            }
        }
    }
    let mut iterations = 0;
    while !delta.rows.is_empty() {
        iterations += 1;
        if iterations > MAX_ITERATIONS {
            return Err(SnbError::Exec(format!(
                "recursive CTE `{name}` exceeded {MAX_ITERATIONS} iterations"
            )));
        }
        let mut next = Materialized { cols: cols.to_vec(), rows: Vec::new() };
        {
            let mut env = Env::new();
            env.insert(name.to_string(), &delta);
            for (i, core) in &recursive {
                let m = exec_core_sched(db, core, params, &env, core_sched(*i))?;
                if m.cols.len() != cols.len() {
                    return Err(SnbError::Plan("CTE arm arity mismatch".into()));
                }
                for row in m.rows {
                    if seen.insert(row.clone()) {
                        next.rows.push(row);
                    }
                }
            }
        }
        total.rows.extend(next.rows.iter().cloned());
        delta = next;
    }

    let mut env = Env::new();
    env.insert(name.to_string(), &total);
    exec_select_sched(db, tail, params, &env, scheds.get(body.cores.len()..).unwrap_or(&[]))
}

/// BFS execution of a reach-shaped recursive CTE: `MIN(depth)` is the
/// shortest walk of at least one edge from start to target, or `NULL`
/// when none is at most `max_depth` edges long. Depth-1 rows exist
/// unconditionally (the base arms carry no depth filter), so the bound
/// is never below 1.
fn exec_reach_bfs(db: &Database, spec: &BfsSpec, params: &[Value]) -> Result<SqlResult> {
    let start = const_eval(&spec.start, params)?;
    let target = const_eval(&spec.target, params)?;
    let t = db.table(&spec.table)?.read();
    let (src, dst) = (t.def.col(&spec.src_col)?, t.def.col(&spec.dst_col)?);
    let depth = bfs_depth(&t, src, dst, &start, &target, spec.max_depth.max(1), spec.undirected);
    let cell = depth.map_or(Value::Null, Value::Int);
    Ok(SqlResult { columns: vec![spec.out_col.clone()], rows: vec![vec![cell]] })
}

/// Length of the shortest walk of at least one edge from `start` to
/// `target` over the edge table `t(src, dst)` — both orientations when
/// `undirected` — if it is at most `max` edges long. Neighbours come
/// from probing the `src`/`dst` indexes under the caller's read guard;
/// `NULL` endpoints never join.
///
/// When `start != target` the search is a bidirectional level BFS: it
/// expands the smaller frontier (forward along edges from the start,
/// backward from the target) and stops at the first level where the
/// two sides meet. Every level is expanded completely before the next,
/// so a first meet after `df` forward and `db` backward levels is a
/// shortest path of `df + db + 1` edges. When `start == target` the
/// answer is the shortest closed walk: a forward-only search with the
/// start not pre-visited, whose match is the first edge back into it.
fn bfs_depth(
    t: &Table,
    src: usize,
    dst: usize,
    start: &Value,
    target: &Value,
    max: i64,
    undirected: bool,
) -> Option<i64> {
    if start.is_null() || target.is_null() {
        return None;
    }
    let both = [(src, dst), (dst, src)];
    let (fwd_dirs, bwd_dirs) =
        if undirected { (&both[..], &both[..]) } else { (&both[..1], &both[1..]) };
    let closed = start == target;
    let mut fwd_seen: HashSet<Value> = if closed { HashSet::new() } else { HashSet::from([start.clone()]) };
    let mut bwd_seen: HashSet<Value> = HashSet::from([target.clone()]);
    let (mut fwd, mut bwd) = (vec![start.clone()], vec![target.clone()]);
    let (mut df, mut db) = (0i64, 0i64);
    let mut ids = Vec::new();
    while df + db < max {
        let forward = closed || fwd.len() <= bwd.len();
        let (frontier, dirs, seen, other) = if forward {
            (&mut fwd, fwd_dirs, &mut fwd_seen, &bwd_seen)
        } else {
            (&mut bwd, bwd_dirs, &mut bwd_seen, &fwd_seen)
        };
        let mut next = Vec::new();
        for v in frontier.iter() {
            for &(by, read) in dirs {
                ids.clear();
                t.find(by, v, &mut ids);
                for &r in &ids {
                    let n = t.cell(r, read);
                    if n.is_null() {
                        continue;
                    }
                    if other.contains(n) {
                        return Some(df + db + 1);
                    }
                    if seen.insert(n.clone()) {
                        next.push(n.clone());
                    }
                }
            }
        }
        if next.is_empty() {
            return None;
        }
        *frontier = next;
        if forward {
            df += 1;
        } else {
            db += 1;
        }
    }
    None
}

// ---------------------------------------------------------------------------
// TRANSITIVE (the Virtuoso-style graph extension)
// ---------------------------------------------------------------------------

/// `TRANSITIVE(table, from, to, max[, DIRECTED])` over the table's first
/// two columns: `0` when the endpoints are equal, the shortest path
/// length when it is at most `max`, and no row otherwise.
fn exec_transitive(
    db: &Database,
    table: &str,
    from: &Expr,
    to: &Expr,
    max: u32,
    directed: bool,
    params: &[Value],
) -> Result<SqlResult> {
    if !db.transitive_enabled {
        return Err(SnbError::Plan(
            "TRANSITIVE is not supported by this engine (row store); use WITH RECURSIVE".into(),
        ));
    }
    let from = const_eval(from, params)?;
    let to = const_eval(to, params)?;
    let columns = vec!["depth".to_string()];
    if cmp_vals(&from, &to) == std::cmp::Ordering::Equal {
        return Ok(SqlResult { columns, rows: vec![vec![Value::Int(0)]] });
    }
    let t = db.table(table)?.read();
    let rows = bfs_depth(&t, 0, 1, &from, &to, max as i64, !directed)
        .map(|d| vec![Value::Int(d)])
        .into_iter()
        .collect();
    Ok(SqlResult { columns, rows })
}

// ---------------------------------------------------------------------------
// INSERT / UPDATE
// ---------------------------------------------------------------------------

fn coerce(value: Value, ty: ColType) -> Value {
    match (ty, value) {
        (ColType::Date, Value::Int(i)) => Value::Date(i),
        (ColType::Int, Value::Date(d)) => Value::Int(d),
        (_, v) => v,
    }
}

fn exec_insert(
    db: &Database,
    table: &str,
    cols: Option<&[String]>,
    values: &[Expr],
    params: &[Value],
) -> Result<SqlResult> {
    let lock = db.table(table)?;
    let mut t = lock.write();
    let arity = t.def.arity();
    let mut row = vec![Value::Null; arity];
    match cols {
        None => {
            if values.len() != arity {
                return Err(SnbError::Plan(format!(
                    "INSERT into `{table}` expects {arity} values, got {}",
                    values.len()
                )));
            }
            for (i, e) in values.iter().enumerate() {
                row[i] = coerce(const_eval(e, params)?, t.def.cols[i].1);
            }
        }
        Some(cols) => {
            if cols.len() != values.len() {
                return Err(SnbError::Plan("INSERT column/value count mismatch".into()));
            }
            for (c, e) in cols.iter().zip(values) {
                let ix = t.def.col(c)?;
                row[ix] = coerce(const_eval(e, params)?, t.def.cols[ix].1);
            }
        }
    }
    t.insert(row)?;
    Ok(SqlResult { columns: vec!["inserted".into()], rows: vec![vec![Value::Int(1)]] })
}

fn exec_update(
    db: &Database,
    table: &str,
    sets: &[(String, Expr)],
    filter: &Expr,
    params: &[Value],
) -> Result<SqlResult> {
    let lock = db.table(table)?;
    let mut t = lock.write();
    // Fast path: `col = const` filter through the index.
    let mut targets: Vec<u32> = Vec::new();
    let mut fast = false;
    if let Expr::Cmp(a, CmpOp::Eq, b) = filter {
        let col_side = |x: &Expr| -> Option<String> {
            match x {
                Expr::Col(_, c) => Some(c.clone()),
                _ => None,
            }
        };
        let (col, val) = match (col_side(a), col_side(b)) {
            (Some(c), None) => (Some(c), const_eval(b, params).ok()),
            (None, Some(c)) => (Some(c), const_eval(a, params).ok()),
            _ => (None, None),
        };
        if let (Some(col), Some(val)) = (col, val) {
            if let Ok(ix) = t.def.col(&col) {
                let val = coerce(val, t.def.cols[ix].1);
                t.find(ix, &val, &mut targets);
                fast = true;
            }
        }
    }
    if !fast {
        return Err(SnbError::Plan("UPDATE requires an equality filter on one column".into()));
    }
    let mut updated = 0i64;
    for r in targets {
        for (col, e) in sets {
            let ix = t.def.col(col)?;
            let v = coerce(const_eval(e, params)?, t.def.cols[ix].1);
            t.update_cell(r, ix, v)?;
        }
        updated += 1;
    }
    Ok(SqlResult { columns: vec!["updated".into()], rows: vec![vec![Value::Int(updated)]] })
}
