//! SQL front end of the shared whole-query optimizer.
//!
//! Select cores whose sources are all database tables lower into the
//! `snb-plan` logical IR — one `TableScan` per source, conjuncts as
//! opaque predicates carrying `alias.col = const` anchor hints and
//! `a.x = b.y` join hints — and run the same Analyze → Canonicalize →
//! Optimize → Lower pipeline as the Cypher front end. What comes back
//! is a [`JoinSchedule`]: the cardinality-estimated source order the
//! executor seeds and joins in, replacing its first-match heuristic.
//!
//! Recursive CTEs get one extra, SQL-specific rewrite: the reach-shaped
//! shortest-path idiom (`WITH RECURSIVE reach(id, depth) AS (...)
//! SELECT MIN(depth) ...`) is detected structurally and lowered to a
//! bidirectional breadth-first search that probes the edge table's
//! `src`/`dst` indexes ([`BfsSpec`]), instead of re-joining the edge
//! table against the delta once per semi-naive iteration. The BFS
//! reproduces the CTE's semantics exactly — depth-1 rows appear
//! unconditionally, expansion requires `depth < N`, and the answer is
//! `MIN(depth)` or `NULL`.

use snb_core::Value;
use snb_plan::{
    optimize, render, OpKind, OpNode, Plan, PlanKind, PlanStats, Pred, Projection, Slot,
};
use std::sync::Arc;

use super::ast::*;
use crate::database::Database;

/// Join order for one [`SelectCore`]: a permutation of its source
/// indexes (0 = FROM, 1.. = JOINs in syntax order). The executor seeds
/// from `order[0]` and joins the rest in sequence.
#[derive(Debug, Clone)]
pub(crate) struct JoinSchedule {
    pub order: Vec<usize>,
}

/// A detected reach-shaped recursive CTE, ready for BFS execution.
#[derive(Debug, Clone)]
pub(crate) struct BfsSpec {
    pub table: String,
    /// Edge column filtered on when expanding forward...
    pub src_col: String,
    /// ...and the column read for the neighbour.
    pub dst_col: String,
    pub start: Expr,
    pub target: Expr,
    pub max_depth: i64,
    pub undirected: bool,
    /// Output column name of the tail's `MIN(depth)` item.
    pub out_col: String,
}

/// A cached plan: the parsed statement, one schedule slot per select
/// core (in canonical traversal order — `Select` cores, then recursive
/// body cores, then tail cores), the BFS rewrite when one applies, and
/// the rendered `EXPLAIN` text.
pub(crate) struct SqlPlanEntry {
    pub stmt: Stmt,
    pub schedules: Vec<Option<JoinSchedule>>,
    pub bfs: Option<BfsSpec>,
    pub explain: String,
}

/// Live table statistics for the optimizer's cost model.
struct DbStats<'a> {
    db: &'a Database,
}

impl PlanStats for DbStats<'_> {
    fn table_rows(&self, table: &str) -> f64 {
        self.db.row_count(table).map(|n| n as f64).unwrap_or(1000.0)
    }

    fn table_indexed(&self, table: &str, col: &str) -> bool {
        self.table_distinct(table, col).is_some()
    }

    fn table_distinct(&self, table: &str, col: &str) -> Option<f64> {
        let t = self.db.table(table).ok()?.read();
        let ix = t.def.col(col).ok()?;
        t.distinct_keys(ix).map(|n| n as f64)
    }
}

/// Build (and render) the plan entry for a parsed statement.
pub(crate) fn build_entry(db: &Database, stmt: Stmt) -> Arc<SqlPlanEntry> {
    let stats = DbStats { db };
    let mut schedules = Vec::new();
    let mut explain = String::new();
    let mut bfs = None;
    match &stmt {
        Stmt::Select(sel) => {
            for (i, core) in sel.cores.iter().enumerate() {
                if sel.cores.len() > 1 {
                    explain.push_str(&format!("-- union arm {} --\n", i + 1));
                }
                let (sched, text) = plan_core(db, core, &stats);
                explain.push_str(&text);
                schedules.push(sched);
            }
        }
        Stmt::WithRecursive { name, cols, body, tail } => {
            bfs = detect_reach_bfs(db, name, cols, body, tail);
            if let Some(spec) = &bfs {
                explain = format!(
                    "plan (sql)\n  1. RecursiveBFS {} ({}, max depth {})  [bidirectional index BFS]  \
                     -> {}\nrewrites (1 pass):\n  [optimize] recursive_bfs: reach-shaped CTE \
                     lowered to a bidirectional BFS over the src/dst indexes\n",
                    spec.table,
                    if spec.undirected { "undirected" } else { "directed" },
                    spec.max_depth,
                    spec.out_col,
                );
                schedules.extend((0..body.cores.len() + tail.cores.len()).map(|_| None));
            } else {
                for (i, core) in body.cores.iter().enumerate() {
                    explain.push_str(&format!("-- recursive body arm {} --\n", i + 1));
                    let (sched, text) = plan_core(db, core, &stats);
                    explain.push_str(&text);
                    schedules.push(sched);
                }
                for core in &tail.cores {
                    explain.push_str("-- tail --\n");
                    let (sched, text) = plan_core(db, core, &stats);
                    explain.push_str(&text);
                    schedules.push(sched);
                }
            }
        }
        Stmt::Insert { .. } | Stmt::Update { .. } | Stmt::Transitive { .. } => {
            explain = "(not planned: write or extension statement)\n".to_string();
        }
    }
    Arc::new(SqlPlanEntry { stmt, schedules, bfs, explain })
}

/// Plan one select core: lower, optimize, derive the join schedule.
/// Cores outside the planned subset (CTE sources, unresolvable
/// columns) keep the executor's built-in heuristic.
fn plan_core(db: &Database, core: &SelectCore, stats: &dyn PlanStats) -> (Option<JoinSchedule>, String) {
    let Some(mut plan) = lower_core(db, core) else {
        return (None, "(outside the planned subset; executor heuristic order)\n".to_string());
    };
    match optimize(&mut plan, stats) {
        Ok(trace) => {
            let order: Vec<usize> = plan.ops.iter().map(|op| op.binds()).collect();
            (Some(JoinSchedule { order }), render(&plan, &trace))
        }
        Err(e) => (None, format!("planning failed: {e}\n")),
    }
}

/// Lower a select core to the logical IR. Returns `None` when any
/// source is not a database table or a column cannot be resolved
/// statically — those cores run on the executor's heuristic.
fn lower_core(db: &Database, core: &SelectCore) -> Option<Plan> {
    let mut refs: Vec<&TableRef> = vec![&core.from];
    refs.extend(core.joins.iter().map(|(t, _)| t));
    let mut defs = Vec::with_capacity(refs.len());
    for r in &refs {
        defs.push(db.table_def(&r.table).ok()?);
    }
    // Distinct aliases, or column resolution is ambiguous.
    for (i, r) in refs.iter().enumerate() {
        if refs[..i].iter().any(|o| o.alias == r.alias) {
            return None;
        }
    }
    let resolve = |alias: &str, col: &str| -> Option<usize> {
        if alias.is_empty() {
            let mut hit = None;
            for (i, d) in defs.iter().enumerate() {
                if d.cols.iter().any(|(c, _)| c == col) {
                    if hit.is_some() {
                        return None;
                    }
                    hit = Some(i);
                }
            }
            hit
        } else {
            refs.iter()
                .position(|r| r.alias == alias)
                .filter(|&i| defs[i].cols.iter().any(|(c, _)| c == col))
        }
    };

    let slots: Vec<Slot> =
        refs.iter().map(|r| Slot { name: r.alias.clone(), label: None }).collect();
    let ops: Vec<OpNode> = refs
        .iter()
        .enumerate()
        .map(|(i, r)| OpNode::new(i, OpKind::TableScan { slot: i, table: r.table.clone() }))
        .collect();

    let mut raw: Vec<&Expr> = Vec::new();
    if let Some(f) = &core.filter {
        raw.extend(f.conjuncts());
    }
    for (_, on) in &core.joins {
        raw.extend(on.conjuncts());
    }
    let mut preds = Vec::with_capacity(raw.len());
    for (pi, e) in raw.iter().enumerate() {
        let mut srcs = Vec::new();
        collect_refs(e, &resolve, &mut srcs)?;
        srcs.sort_unstable();
        srcs.dedup();
        let mut anchor = None;
        let mut join = None;
        let mut sel = conjunct_sel(e);
        if let Expr::Cmp(a, CmpOp::Eq, b) = e {
            let col_of = |x: &Expr| match x {
                Expr::Col(al, c) => resolve(al, c).map(|s| (s, c.clone())),
                _ => None,
            };
            match (col_of(a), col_of(b)) {
                (Some((s1, c1)), Some((s2, c2))) if s1 != s2 => {
                    join = Some((s1, c1, s2, c2));
                }
                (Some((s, c)), None) if is_const(b) => {
                    if c == "id" {
                        sel = 0.001;
                    }
                    anchor = Some((s, c));
                }
                (None, Some((s, c))) if is_const(a) => {
                    if c == "id" {
                        sel = 0.001;
                    }
                    anchor = Some((s, c));
                }
                _ => {}
            }
        }
        preds.push(Pred { refs: srcs, sel, desc: expr_desc(e), payload: pi, anchor, join });
    }

    // Projection summary: columns the output reads (all of them for
    // `SELECT *`).
    let mut used: Vec<(usize, String)> = Vec::new();
    let display;
    if core.items.is_empty() {
        for (i, d) in defs.iter().enumerate() {
            used.extend(d.cols.iter().map(|(c, _)| (i, c.clone())));
        }
        display = "*".to_string();
    } else {
        for (e, _) in &core.items {
            collect_cols(e, &resolve, &mut used)?;
        }
        display = core
            .items
            .iter()
            .map(|(_, n)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ");
    }
    used.sort();
    used.dedup();

    Some(Plan {
        kind: PlanKind::Sql,
        slots,
        preds,
        ops,
        proj: Projection {
            used,
            distinct: core.distinct,
            order_by: 0,
            limit: None,
            display,
        },
    })
}

/// True for expressions with no column references (evaluable before
/// any row is bound).
fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Col(..) => false,
        Expr::Param(_) | Expr::Lit(_) => true,
        Expr::Cmp(a, _, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Add(a, b)
        | Expr::Sub(a, b) => is_const(a) && is_const(b),
        Expr::Not(e) => is_const(e),
        Expr::Agg(..) => false,
    }
}

/// Collect the source indexes an expression reads; `None` on any
/// unresolvable column.
fn collect_refs(
    e: &Expr,
    resolve: &dyn Fn(&str, &str) -> Option<usize>,
    out: &mut Vec<usize>,
) -> Option<()> {
    match e {
        Expr::Col(a, c) => out.push(resolve(a, c)?),
        Expr::Param(_) | Expr::Lit(_) => {}
        Expr::Cmp(a, _, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Add(a, b)
        | Expr::Sub(a, b) => {
            collect_refs(a, resolve, out)?;
            collect_refs(b, resolve, out)?;
        }
        Expr::Not(e) => collect_refs(e, resolve, out)?,
        Expr::Agg(_, inner, _) => {
            if let Some(inner) = inner {
                collect_refs(inner, resolve, out)?;
            }
        }
    }
    Some(())
}

/// Collect `(source, column)` pairs an expression reads.
fn collect_cols(
    e: &Expr,
    resolve: &dyn Fn(&str, &str) -> Option<usize>,
    out: &mut Vec<(usize, String)>,
) -> Option<()> {
    match e {
        Expr::Col(a, c) => out.push((resolve(a, c)?, c.clone())),
        Expr::Param(_) | Expr::Lit(_) => {}
        Expr::Cmp(a, _, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Add(a, b)
        | Expr::Sub(a, b) => {
            collect_cols(a, resolve, out)?;
            collect_cols(b, resolve, out)?;
        }
        Expr::Not(e) => collect_cols(e, resolve, out)?,
        Expr::Agg(_, inner, _) => {
            if let Some(inner) = inner {
                collect_cols(inner, resolve, out)?;
            }
        }
    }
    Some(())
}

/// Default selectivity by comparison shape.
fn conjunct_sel(e: &Expr) -> f64 {
    match e {
        Expr::Cmp(_, CmpOp::Eq, _) => 0.1,
        Expr::Cmp(_, CmpOp::Ne, _) => 0.9,
        Expr::Cmp(..) => 0.3,
        _ => 0.5,
    }
}

/// Display form of an expression for `EXPLAIN`.
fn expr_desc(e: &Expr) -> String {
    match e {
        Expr::Col(a, c) => {
            if a.is_empty() {
                c.clone()
            } else {
                format!("{a}.{c}")
            }
        }
        Expr::Param(n) => format!("${n}"),
        Expr::Lit(v) => format!("{v}"),
        Expr::Cmp(a, op, b) => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{} {op} {}", expr_desc(a), expr_desc(b))
        }
        Expr::And(a, b) => format!("{} AND {}", expr_desc(a), expr_desc(b)),
        Expr::Or(a, b) => format!("({} OR {})", expr_desc(a), expr_desc(b)),
        Expr::Not(e) => format!("NOT {}", expr_desc(e)),
        Expr::Add(a, b) => format!("{} + {}", expr_desc(a), expr_desc(b)),
        Expr::Sub(a, b) => format!("{} - {}", expr_desc(a), expr_desc(b)),
        Expr::Agg(k, inner, distinct) => {
            let k = match k {
                AggKind::Count => "COUNT",
                AggKind::Min => "MIN",
                AggKind::Max => "MAX",
                AggKind::Sum => "SUM",
                AggKind::Avg => "AVG",
            };
            let inner = match inner {
                Some(e) => expr_desc(e),
                None => "*".to_string(),
            };
            format!("{k}({}{inner})", if *distinct { "DISTINCT " } else { "" })
        }
    }
}

// ---------------------------------------------------------------------------
// Reach-CTE detection
// ---------------------------------------------------------------------------

/// One arm of the reach CTE, normalized: scanning `table`, binding on
/// `bind_col`, selecting `sel_col`.
struct ArmShape {
    table: String,
    sel_col: String,
    bind_col: String,
}

fn references(core: &SelectCore, name: &str) -> bool {
    core.from.table == name || core.joins.iter().any(|(t, _)| t.table == name)
}

/// Structurally match the SQL shortest-path idiom:
///
/// ```sql
/// WITH RECURSIVE reach(id, depth) AS (
///   SELECT dst, 1 FROM E WHERE src = $1
///   [UNION SELECT src, 1 FROM E WHERE dst = $1]
///   UNION SELECT k.dst, r.depth + 1 FROM reach r JOIN E k ON k.src = r.id WHERE r.depth < N
///   [UNION SELECT k.src, r.depth + 1 FROM reach r JOIN E k ON k.dst = r.id WHERE r.depth < N]
/// ) SELECT MIN(depth) FROM reach WHERE id = $2
/// ```
///
/// One base + one recursive arm is a directed search; the bracketed
/// mirror arms make it undirected. Any deviation returns `None` and the
/// CTE runs semi-naive.
fn detect_reach_bfs(
    db: &Database,
    name: &str,
    cols: &[String],
    body: &SelectStmt,
    tail: &SelectStmt,
) -> Option<BfsSpec> {
    if cols.len() != 2 || body.union_all || !body.order_by.is_empty() || body.limit.is_some() {
        return None;
    }
    let (node_col, depth_col) = (&cols[0], &cols[1]);

    let mut base: Vec<(ArmShape, Expr)> = Vec::new();
    let mut rec: Vec<(ArmShape, i64)> = Vec::new();
    for core in &body.cores {
        if references(core, name) {
            rec.push(match_rec_arm(core, name, node_col, depth_col)?);
        } else {
            base.push(match_base_arm(core)?);
        }
    }
    if base.is_empty() || base.len() > 2 || rec.len() != base.len() {
        return None;
    }
    let table = base[0].0.table.clone();
    if db.table(&table).is_err() {
        return None;
    }
    if base.iter().any(|(a, _)| a.table != table) || rec.iter().any(|(a, _)| a.table != table) {
        return None;
    }
    let start = base[0].1.clone();
    if base.iter().any(|(_, s)| *s != start) {
        return None;
    }
    let max_depth = rec[0].1;
    if rec.iter().any(|(_, n)| *n != max_depth) {
        return None;
    }
    let fwd = &base[0].0;
    if fwd.sel_col == fwd.bind_col {
        return None;
    }
    let undirected = base.len() == 2;
    if undirected {
        let bwd = &base[1].0;
        if bwd.sel_col != fwd.bind_col || bwd.bind_col != fwd.sel_col {
            return None;
        }
    }
    // Recursive arms must traverse the same orientations as the base
    // arms (set-wise: forward always, plus the mirror iff undirected).
    let orientations: Vec<(&str, &str)> =
        rec.iter().map(|(a, _)| (a.bind_col.as_str(), a.sel_col.as_str())).collect();
    if !orientations.contains(&(fwd.bind_col.as_str(), fwd.sel_col.as_str())) {
        return None;
    }
    if undirected && !orientations.contains(&(fwd.sel_col.as_str(), fwd.bind_col.as_str())) {
        return None;
    }
    if undirected && orientations.len() != 2 && orientations[0] == orientations[1] {
        return None;
    }

    // Tail: SELECT MIN(depth) FROM reach WHERE id = <const>.
    if tail.cores.len() != 1 || !tail.order_by.is_empty() || tail.limit.is_some() {
        return None;
    }
    let t = &tail.cores[0];
    if t.distinct || !t.joins.is_empty() || t.from.table != name || t.items.len() != 1 {
        return None;
    }
    let (item, out_col) = &t.items[0];
    match item {
        Expr::Agg(AggKind::Min, Some(inner), false) => match inner.as_ref() {
            Expr::Col(a, c) if c == depth_col && (a.is_empty() || *a == t.from.alias) => {}
            _ => return None,
        },
        _ => return None,
    }
    let target = match t.filter.as_ref()? {
        Expr::Cmp(a, CmpOp::Eq, b) => {
            let is_node = |x: &Expr| {
                matches!(x, Expr::Col(al, c) if c == node_col && (al.is_empty() || *al == t.from.alias))
            };
            if is_node(a) && is_const(b) {
                (**b).clone()
            } else if is_node(b) && is_const(a) {
                (**a).clone()
            } else {
                return None;
            }
        }
        _ => return None,
    };

    Some(BfsSpec {
        table,
        src_col: fwd.bind_col.clone(),
        dst_col: fwd.sel_col.clone(),
        start,
        target,
        max_depth,
        undirected,
        out_col: out_col.clone(),
    })
}

/// `SELECT <sel_col>, 1 FROM E WHERE <bind_col> = <const>`.
fn match_base_arm(core: &SelectCore) -> Option<(ArmShape, Expr)> {
    if core.distinct || !core.joins.is_empty() || core.items.len() != 2 {
        return None;
    }
    let sel_col = match &core.items[0].0 {
        Expr::Col(a, c) if a.is_empty() || *a == core.from.alias => c.clone(),
        _ => return None,
    };
    match &core.items[1].0 {
        Expr::Lit(Value::Int(1)) => {}
        _ => return None,
    }
    let (bind_col, start) = match core.filter.as_ref()? {
        Expr::Cmp(a, CmpOp::Eq, b) => {
            let col_of = |x: &Expr| match x {
                Expr::Col(al, c) if al.is_empty() || *al == core.from.alias => Some(c.clone()),
                _ => None,
            };
            match (col_of(a), col_of(b)) {
                (Some(c), None) if is_const(b) => (c, (**b).clone()),
                (None, Some(c)) if is_const(a) => (c, (**a).clone()),
                _ => return None,
            }
        }
        _ => return None,
    };
    Some((ArmShape { table: core.from.table.clone(), sel_col, bind_col }, start))
}

/// `SELECT k.<sel_col>, r.<depth> + 1 FROM reach r JOIN E k
///  ON k.<bind_col> = r.<node> WHERE r.<depth> < N`.
fn match_rec_arm(
    core: &SelectCore,
    name: &str,
    node_col: &str,
    depth_col: &str,
) -> Option<(ArmShape, i64)> {
    if core.distinct || core.joins.len() != 1 || core.items.len() != 2 {
        return None;
    }
    if core.from.table != name {
        return None;
    }
    let r_alias = &core.from.alias;
    let (edge, on) = &core.joins[0];
    if edge.table == name {
        return None;
    }
    let k_alias = &edge.alias;
    let sel_col = match &core.items[0].0 {
        Expr::Col(a, c) if a == k_alias => c.clone(),
        _ => return None,
    };
    match &core.items[1].0 {
        Expr::Add(a, b) => {
            match a.as_ref() {
                Expr::Col(al, c) if al == r_alias && c == depth_col => {}
                _ => return None,
            }
            match b.as_ref() {
                Expr::Lit(Value::Int(1)) => {}
                _ => return None,
            }
        }
        _ => return None,
    }
    let bind_col = match on {
        Expr::Cmp(a, CmpOp::Eq, b) => {
            let k_col = |x: &Expr| match x {
                Expr::Col(al, c) if al == k_alias => Some(c.clone()),
                _ => None,
            };
            let is_r_node = |x: &Expr| {
                matches!(x, Expr::Col(al, c) if al == r_alias && c == node_col)
            };
            match (k_col(a), k_col(b)) {
                (Some(c), None) if is_r_node(b) => c,
                (None, Some(c)) if is_r_node(a) => c,
                _ => return None,
            }
        }
        _ => return None,
    };
    let max_depth = match core.filter.as_ref()? {
        Expr::Cmp(a, CmpOp::Lt, b) => {
            match a.as_ref() {
                Expr::Col(al, c) if al == r_alias && c == depth_col => {}
                _ => return None,
            }
            match b.as_ref() {
                Expr::Lit(Value::Int(n)) => *n,
                _ => return None,
            }
        }
        _ => return None,
    };
    Some((ArmShape { table: edge.table.clone(), sel_col, bind_col }, max_depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Layout;

    const SP: &str = "WITH RECURSIVE reach(id, depth) AS ( \
        SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
        UNION SELECT src, 1 FROM person_knows_person WHERE dst = $1 \
        UNION SELECT k.dst, r.depth + 1 FROM reach r \
              JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 10 \
        UNION SELECT k.src, r.depth + 1 FROM reach r \
              JOIN person_knows_person k ON k.dst = r.id WHERE r.depth < 10 \
        ) SELECT MIN(depth) FROM reach WHERE id = $2";

    fn knows(db: &Database, a: i64, b: i64) {
        let arity = db.table_def("person_knows_person").unwrap().arity();
        let mut row = vec![Value::Null; arity];
        row[0] = Value::Int(a);
        row[1] = Value::Int(b);
        db.insert_row("person_knows_person", row).unwrap();
    }

    #[test]
    fn reach_cte_detected_as_undirected_bfs() {
        let db = Database::new_snb(Layout::Row);
        let entry = db.plan_for(SP).unwrap();
        let spec = entry.bfs.as_ref().expect("reach shape should be detected");
        assert_eq!(spec.table, "person_knows_person");
        assert_eq!(spec.src_col, "src");
        assert_eq!(spec.dst_col, "dst");
        assert!(spec.undirected);
        assert_eq!(spec.max_depth, 10);
        assert_eq!(spec.out_col, "min");
        assert!(entry.explain.contains("RecursiveBFS"));
    }

    #[test]
    fn directed_variant_and_near_misses() {
        let db = Database::new_snb(Layout::Row);
        // Directed: one base arm, one recursive arm.
        let directed = "WITH RECURSIVE reach(id, depth) AS ( \
            SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
            UNION SELECT k.dst, r.depth + 1 FROM reach r \
                  JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 6 \
            ) SELECT MIN(depth) FROM reach WHERE id = $2";
        let entry = db.plan_for(directed).unwrap();
        assert!(!entry.bfs.as_ref().unwrap().undirected);
        // Tail aggregating MAX instead of MIN is not a shortest path.
        let max_tail = directed.replace("MIN(depth)", "MAX(depth)");
        assert!(db.plan_for(&max_tail).unwrap().bfs.is_none());
        // Mismatched start params across arms are not one search.
        let two_starts = SP.replace("WHERE dst = $1", "WHERE dst = $2");
        assert!(db.plan_for(&two_starts).unwrap().bfs.is_none());
    }

    #[test]
    fn bfs_sees_writes_between_queries() {
        let db = Database::new_snb(Layout::Row);
        knows(&db, 1, 2);
        knows(&db, 3, 4);
        let params = [Value::Int(1), Value::Int(4)];
        assert_eq!(db.sql(SP, &params).unwrap().rows, vec![vec![Value::Null]]);
        // Bridge the components through SQL INSERT; the cached plan
        // must read the live indexes, not the graph it was planned on.
        db.sql("INSERT INTO person_knows_person (src, dst) VALUES ($1, $2)", &[Value::Int(2), Value::Int(3)])
            .unwrap();
        assert_eq!(db.sql(SP, &params).unwrap().rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn planner_toggle_and_cache_bound() {
        let db = Database::new_snb(Layout::Row);
        knows(&db, 1, 2);
        let q = "SELECT p.id FROM person_knows_person k JOIN person p ON p.id = k.dst WHERE k.src = $1";
        let on = db.sql(q, &[Value::Int(1)]).unwrap();
        db.set_planner_enabled(false);
        assert!(!db.planner_enabled());
        let off = db.sql(q, &[Value::Int(1)]).unwrap();
        assert_eq!(on, off);
        db.set_planner_enabled(true);
        // Cache stays bounded under many distinct query texts.
        for i in 0..600 {
            let _ = db.plan_for(&format!("SELECT firstName FROM person WHERE id = {i}"));
        }
        let again = db.sql(q, &[Value::Int(1)]).unwrap();
        assert_eq!(on, again);
    }
}
