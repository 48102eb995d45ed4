//! The phase-ordered rewrite pipeline.
//!
//! Phases run in a fixed order — Analyze → Canonicalize → Optimize →
//! Lower — and the Optimize phase applies its rule set repeatedly until
//! a whole pass changes nothing (a fixpoint), bounded by [`MAX_PASSES`]
//! so a buggy rule pair that keeps undoing each other's work surfaces
//! as a plan error instead of a hang. Invariants are validated after
//! every phase: binding order, single predicate attachment, in-range
//! references, and (at Lower) fully resolved strategies with no
//! residual predicates.
//!
//! Optimize rules:
//! * `scan_strategy` — pick dense id lookup vs label scan vs full scan
//!   (graph) and indexed probe vs sequential scan (tables), seeding
//!   cardinality estimates from statistics. A table seq scan costs
//!   every row it reads; an index probe costs rows / distinct keys.
//! * `expansion_reorder` — orient a Cypher chain so the id-anchored
//!   end drives the expansion (mirrors the executor's anchoring
//!   heuristic, with the cost model recorded in the trace).
//! * `join_order` — order SQL sources by estimated cardinality,
//!   walking join predicates greedily from the cheapest seed.
//! * `predicate_pushdown` — attach each predicate to the earliest
//!   operator at which all its slots are bound.
//! * `projection_prune` — annotate each operator with the columns the
//!   projection actually reads, so executors fetch nothing else.

use crate::ir::{OpKind, OpNode, Plan, PlanKind, Strategy};
use crate::stats::PlanStats;
use std::collections::HashSet;
use std::fmt;

/// Upper bound on Optimize passes before the pipeline reports a
/// non-converging rule set.
pub const MAX_PASSES: usize = 8;

/// Pipeline phases, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Analyze,
    Canonicalize,
    Optimize,
    Lower,
}

impl Phase {
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Analyze => "analyze",
            Phase::Canonicalize => "canonicalize",
            Phase::Optimize => "optimize",
            Phase::Lower => "lower",
        }
    }
}

/// One recorded rule application.
#[derive(Debug, Clone)]
pub struct RuleFire {
    pub phase: Phase,
    pub rule: &'static str,
    pub detail: String,
}

/// The full rewrite trace of one plan (rendered by `EXPLAIN`).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub fires: Vec<RuleFire>,
    pub passes: usize,
}

impl Trace {
    fn fire(&mut self, phase: Phase, rule: &'static str, detail: String) {
        self.fires.push(RuleFire { phase, rule, detail });
    }
}

/// Plan-time failures (all indicate front-end or rule bugs, not user
/// errors; callers surface them as planning errors).
#[derive(Debug, Clone)]
pub enum PlanError {
    /// The Optimize phase did not converge within [`MAX_PASSES`].
    Fixpoint(usize),
    /// An invariant check failed after the named phase.
    Invariant(Phase, String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Fixpoint(p) => write!(f, "optimizer did not converge after {p} passes"),
            PlanError::Invariant(ph, m) => write!(f, "invariant violated after {}: {m}", ph.as_str()),
        }
    }
}

/// Run the full pipeline over a lowered plan, mutating it in place and
/// returning the rewrite trace.
pub fn optimize(plan: &mut Plan, stats: &dyn PlanStats) -> Result<Trace, PlanError> {
    let mut trace = Trace::default();

    analyze(plan, stats, &mut trace);
    check_invariants(plan, Phase::Analyze)?;

    canonicalize(plan, &mut trace);
    check_invariants(plan, Phase::Canonicalize)?;

    loop {
        trace.passes += 1;
        if trace.passes > MAX_PASSES {
            return Err(PlanError::Fixpoint(trace.passes));
        }
        let before = trace.fires.len();
        rule_scan_strategy(plan, stats, &mut trace);
        rule_expansion_reorder(plan, &mut trace);
        rule_join_order(plan, &mut trace);
        rule_predicate_pushdown(plan, &mut trace);
        rule_projection_prune(plan, &mut trace);
        if trace.fires.len() == before {
            break;
        }
    }
    check_invariants(plan, Phase::Optimize)?;

    lower(plan, &mut trace)?;
    check_invariants(plan, Phase::Lower)?;
    Ok(trace)
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// Analyze: sanity-shape the plan and record gross input cardinality.
fn analyze(plan: &Plan, stats: &dyn PlanStats, trace: &mut Trace) {
    let total = stats.total_rows();
    trace.fire(
        Phase::Analyze,
        "shape",
        format!(
            "{} ops, {} slots, {} preds over ~{:.0} rows",
            plan.ops.len(),
            plan.slots.len(),
            plan.preds.len(),
            total
        ),
    );
}

/// Canonicalize: order the predicate list by (selectivity, payload) so
/// later rules see the most selective predicates first and two
/// syntactic spellings of one query produce one plan. Runs before any
/// attachment, so reindexing is safe.
fn canonicalize(plan: &mut Plan, trace: &mut Trace) {
    debug_assert!(plan.ops.iter().all(|o| o.preds.is_empty()));
    let mut order: Vec<usize> = (0..plan.preds.len()).collect();
    order.sort_by(|&a, &b| {
        plan.preds[a]
            .sel
            .partial_cmp(&plan.preds[b].sel)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(plan.preds[a].payload.cmp(&plan.preds[b].payload))
    });
    if order.iter().enumerate().any(|(i, &p)| i != p) {
        let mut sorted = Vec::with_capacity(plan.preds.len());
        for &p in &order {
            sorted.push(plan.preds[p].clone());
        }
        plan.preds = sorted;
        trace.fire(Phase::Canonicalize, "pred_order", format!("sorted {} predicates by selectivity", plan.preds.len()));
    }
}

/// Lower: final validation before the front end consumes the plan.
fn lower(plan: &Plan, trace: &mut Trace) -> Result<(), PlanError> {
    for op in &plan.ops {
        if op.strategy == Strategy::Unresolved {
            return Err(PlanError::Invariant(Phase::Lower, format!("op #{} has no access strategy", op.id)));
        }
    }
    let residual = plan.unattached();
    if !residual.is_empty() {
        return Err(PlanError::Invariant(Phase::Lower, format!("{} predicates left unattached", residual.len())));
    }
    trace.fire(Phase::Lower, "validate", format!("{} ops resolved, all {} predicates placed", plan.ops.len(), plan.preds.len()));
    Ok(())
}

// ---------------------------------------------------------------------------
// Optimize rules
// ---------------------------------------------------------------------------

/// Whether `slot` is pinned to a single vertex/row by an id anchor.
fn id_anchored(plan: &Plan, slot: usize) -> bool {
    plan.slots[slot].label.is_some()
        && plan.preds.iter().any(|p| p.anchor.as_ref().map_or(false, |(s, c)| *s == slot && c == "id"))
}

fn rule_scan_strategy(plan: &mut Plan, stats: &dyn PlanStats, trace: &mut Trace) {
    let mut prev_est = 1.0f64;
    for i in 0..plan.ops.len() {
        if plan.ops[i].strategy != Strategy::Unresolved {
            prev_est = plan.ops[i].est_rows;
            continue;
        }
        let (strategy, est, detail) = match plan.ops[i].kind.clone() {
            OpKind::NodeScan { slot, label } => {
                if id_anchored(plan, slot) {
                    (Strategy::ById, 1.0, format!("{}: dense id lookup", plan.slots[slot].name))
                } else if let Some(l) = label {
                    let rows = stats.label_rows(Some(l));
                    (Strategy::ByLabel, rows, format!("{}: label scan over ~{rows:.0} rows", plan.slots[slot].name))
                } else {
                    let rows = stats.total_rows();
                    (Strategy::FullScan, rows, format!("{}: full scan over ~{rows:.0} rows", plan.slots[slot].name))
                }
            }
            OpKind::Expand { from, dir, label, min: _, max, .. } => {
                let flabel = plan.slots[from].label;
                let deg = stats.avg_degree(flabel, dir, label);
                let hops = max.min(4);
                let est = prev_est * deg.powi(hops as i32).max(deg);
                (Strategy::Adjacency, est, format!("avg degree {deg:.1} → ~{est:.1} rows"))
            }
            OpKind::PathLen { .. } => (Strategy::Adjacency, prev_est, "bidirectional BFS".to_string()),
            // A seq scan costs every row it reads, filtered or not; an
            // index probe costs the rows behind one key.
            OpKind::TableScan { slot, table } => {
                let rows = stats.table_rows(&table);
                let anchor = plan.preds.iter().find_map(|p| match &p.anchor {
                    Some((s, col)) if *s == slot => Some((p.sel, col.clone())),
                    _ => None,
                });
                match anchor {
                    Some((sel, col)) if stats.table_indexed(&table, &col) => {
                        let est = match stats.table_distinct(&table, &col) {
                            Some(keys) if keys >= 1.0 => rows / keys,
                            _ => rows * sel,
                        };
                        let detail = format!("{table}: indexed probe on {col}");
                        (Strategy::IndexEq(col), est.max(1.0), detail)
                    }
                    _ => {
                        let kept = anchor.map_or(rows, |(sel, _)| (rows * sel).max(1.0));
                        (Strategy::Seq, rows, format!("{table}: seq scan reads ~{rows:.0} rows, keeps ~{kept:.1}"))
                    }
                }
            }
        };
        let op = &mut plan.ops[i];
        op.strategy = strategy;
        op.est_rows = est;
        prev_est = est;
        trace.fire(Phase::Optimize, "scan_strategy", format!("op #{} {} ({})", op.id, op.strategy.as_str(), detail));
    }
}

/// Orient a Cypher chain so the id-anchored end drives the match. The
/// executor's correctness does not depend on orientation, but the cost
/// difference is the gap between one dense lookup and a whole label
/// scan. Fires exactly when the head is unanchored and the tail is
/// anchored (the same decision the reference executor makes, so
/// optimized and naive row order stay comparable 1:1).
fn rule_expansion_reorder(plan: &mut Plan, trace: &mut Trace) {
    if plan.kind != PlanKind::Cypher || plan.ops.len() < 2 {
        return;
    }
    // Only a pure linear chain qualifies: NodeScan then Expands.
    if !matches!(plan.ops[0].kind, OpKind::NodeScan { .. }) {
        return;
    }
    if !plan.ops[1..].iter().all(|o| matches!(o.kind, OpKind::Expand { .. })) {
        return;
    }
    // Attached predicates would need re-placement; pushdown runs after
    // this rule in the same pass, so attachment implies a settled plan.
    if plan.ops.iter().any(|o| !o.preds.is_empty()) {
        return;
    }
    let head = plan.ops[0].binds();
    let Some(tail) = plan.ops.last().map(|o| o.binds()) else { return };
    if id_anchored(plan, head) || !id_anchored(plan, tail) {
        return;
    }
    let forward_cost = plan.ops.iter().map(|o| o.est_rows).sum::<f64>();
    // Rebuild the chain from the anchored tail.
    let mut chain: Vec<OpNode> = Vec::with_capacity(plan.ops.len());
    let scan_id = plan.ops[0].id;
    chain.push(OpNode::new(scan_id, OpKind::NodeScan { slot: tail, label: plan.slots[tail].label }));
    for op in plan.ops[1..].iter().rev() {
        let OpKind::Expand { from, to, dir, label, min, max, .. } = op.kind.clone() else { unreachable!() };
        let mut rev = OpNode::new(
            op.id,
            OpKind::Expand {
                from: to,
                to: from,
                dir: dir.reverse(),
                label,
                to_label: plan.slots[from].label,
                min,
                max,
            },
        );
        rev.fetch = op.fetch.clone();
        chain.push(rev);
    }
    plan.ops = chain;
    trace.fire(
        Phase::Optimize,
        "expansion_reorder",
        format!(
            "reversed chain to start at anchored `{}` (forward cost ~{forward_cost:.1}, anchored start costs 1 seed row)",
            plan.slots[tail].name
        ),
    );
}

/// Order SQL sources cheapest-first, walking join predicates greedily
/// from the lowest-cardinality seed. Mirrors the textbook greedy
/// cost-based join ordering; estimates come from `scan_strategy`.
fn rule_join_order(plan: &mut Plan, trace: &mut Trace) {
    if plan.kind != PlanKind::Sql || plan.ops.len() < 2 {
        return;
    }
    if !plan.ops.iter().all(|o| matches!(o.kind, OpKind::TableScan { .. })) {
        return;
    }
    if plan.ops.iter().any(|o| !o.preds.is_empty() || o.strategy == Strategy::Unresolved) {
        return;
    }
    let n = plan.ops.len();
    let slot_of: Vec<usize> = plan.ops.iter().map(|o| o.binds()).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut bound_slots: HashSet<usize> = HashSet::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    let cheapest = |pool: &[usize]| {
        pool.iter().copied().min_by(|&a, &b| {
            plan.ops[a].est_rows.partial_cmp(&plan.ops[b].est_rows).unwrap_or(std::cmp::Ordering::Equal)
        })
    };
    // Seed: cheapest source.
    let Some(seed) = cheapest(&remaining) else { return };
    order.push(seed);
    bound_slots.insert(slot_of[seed]);
    remaining.retain(|&x| x != seed);
    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                plan.preds.iter().any(|p| {
                    p.join.as_ref().map_or(false, |(s1, _, s2, _)| {
                        (bound_slots.contains(s1) && *s2 == slot_of[i])
                            || (bound_slots.contains(s2) && *s1 == slot_of[i])
                    })
                })
            })
            .collect();
        let pool = if connected.is_empty() { &remaining } else { &connected };
        let Some(next) = cheapest(pool) else { return };
        order.push(next);
        bound_slots.insert(slot_of[next]);
        remaining.retain(|&x| x != next);
    }
    if order.iter().enumerate().all(|(i, &p)| i == p) {
        return;
    }
    let names: Vec<&str> = order.iter().map(|&i| plan.slots[slot_of[i]].name.as_str()).collect();
    plan.ops = order.iter().map(|&i| plan.ops[i].clone()).collect();
    trace.fire(Phase::Optimize, "join_order", format!("reordered sources: {}", names.join(" ⋈ ")));
}

/// Attach every predicate to the earliest operator at which all of its
/// slots are bound.
fn rule_predicate_pushdown(plan: &mut Plan, trace: &mut Trace) {
    for p in plan.unattached() {
        let refs = plan.preds[p].refs.clone();
        let mut bound: HashSet<usize> = HashSet::new();
        let mut target = None;
        for (i, op) in plan.ops.iter().enumerate() {
            bound.insert(op.binds());
            if refs.iter().all(|r| bound.contains(r)) {
                target = Some(i);
                break;
            }
        }
        // A predicate over unbound slots would already have failed the
        // front end; attach to the last op as a defensive residual.
        let i = target.unwrap_or(plan.ops.len() - 1);
        plan.ops[i].preds.push(p);
        let desc = plan.preds[p].desc.clone();
        trace.fire(
            Phase::Optimize,
            "predicate_pushdown",
            format!("`{desc}` → op #{} (sel {:.2})", plan.ops[i].id, plan.preds[p].sel),
        );
    }
}

/// Annotate each operator with the columns the projection reads from
/// the slot it binds, so executors materialize nothing else.
fn rule_projection_prune(plan: &mut Plan, trace: &mut Trace) {
    for i in 0..plan.ops.len() {
        let slot = plan.ops[i].binds();
        let mut fetch: Vec<String> = plan
            .proj
            .used
            .iter()
            .filter(|(s, _)| *s == slot)
            .map(|(_, c)| c.clone())
            .collect();
        fetch.sort();
        fetch.dedup();
        if fetch != plan.ops[i].fetch {
            let shown = if fetch.is_empty() { "∅ (row id only)".to_string() } else { fetch.join(", ") };
            plan.ops[i].fetch = fetch;
            trace.fire(Phase::Optimize, "projection_prune", format!("op #{} fetches [{shown}]", plan.ops[i].id));
        }
    }
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

fn check_invariants(plan: &Plan, phase: Phase) -> Result<(), PlanError> {
    let err = |m: String| Err(PlanError::Invariant(phase, m));
    if plan.ops.is_empty() {
        return err("plan has no operators".into());
    }
    for p in &plan.preds {
        if p.refs.iter().any(|&r| r >= plan.slots.len()) {
            return err(format!("predicate `{}` references an out-of-range slot", p.desc));
        }
    }
    let mut bound: HashSet<usize> = HashSet::new();
    let mut attached: HashSet<usize> = HashSet::new();
    for op in &plan.ops {
        for r in op.requires() {
            if !bound.contains(&r) {
                return err(format!("op #{} consumes slot {r} before it is bound", op.id));
            }
        }
        let b = op.binds();
        if b >= plan.slots.len() {
            return err(format!("op #{} binds out-of-range slot {b}", op.id));
        }
        if !bound.insert(b) {
            return err(format!("op #{} rebinds slot {b}", op.id));
        }
        for &p in &op.preds {
            if p >= plan.preds.len() {
                return err(format!("op #{} attaches unknown predicate {p}", op.id));
            }
            if !attached.insert(p) {
                return err(format!("predicate `{}` attached twice", plan.preds[p].desc));
            }
            if plan.preds[p].refs.iter().any(|r| !bound.contains(r)) {
                return err(format!("predicate `{}` runs before its slots are bound", plan.preds[p].desc));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Plan, PlanKind, Pred, Projection, Slot};
    use crate::stats::NoStats;
    use snb_core::Direction;

    fn node_slot(name: &str, label: Option<snb_core::VertexLabel>) -> Slot {
        Slot { name: name.into(), label }
    }

    fn eq_pred(slot: usize, col: &str, payload: usize, sel: f64) -> Pred {
        Pred {
            refs: vec![slot],
            sel,
            desc: format!("s{slot}.{col} = $x"),
            payload,
            anchor: Some((slot, col.into())),
            join: None,
        }
    }

    #[test]
    fn chain_reorders_to_anchored_tail_and_converges() {
        use snb_core::VertexLabel::Person;
        let mut plan = Plan {
            kind: PlanKind::Cypher,
            slots: vec![node_slot("m", None), node_slot("p", Some(Person))],
            preds: vec![eq_pred(1, "id", 0, 0.001)],
            ops: vec![
                OpNode::new(0, OpKind::NodeScan { slot: 0, label: None }),
                OpNode::new(1, OpKind::Expand {
                    from: 0,
                    to: 1,
                    dir: Direction::Out,
                    label: None,
                    to_label: Some(Person),
                    min: 1,
                    max: 1,
                }),
            ],
            proj: Projection::default(),
        };
        let trace = optimize(&mut plan, &NoStats).unwrap();
        assert!(trace.fires.iter().any(|f| f.rule == "expansion_reorder"));
        // Reversed: scan the anchored `p`, expand In toward `m`.
        assert!(matches!(plan.ops[0].kind, OpKind::NodeScan { slot: 1, .. }));
        assert_eq!(plan.ops[0].strategy, Strategy::ById);
        match &plan.ops[1].kind {
            OpKind::Expand { from: 1, to: 0, dir: Direction::In, .. } => {}
            other => panic!("unexpected op: {other:?}"),
        }
        assert!(trace.passes <= MAX_PASSES);
        assert!(plan.unattached().is_empty());
    }

    #[test]
    fn join_order_seeds_from_anchored_source() {
        let mut plan = Plan {
            kind: PlanKind::Sql,
            slots: vec![node_slot("k", None), node_slot("p", None)],
            preds: vec![
                Pred {
                    refs: vec![0, 1],
                    sel: 0.1,
                    desc: "k.dst = p.id".into(),
                    payload: 0,
                    anchor: None,
                    join: Some((0, "dst".into(), 1, "id".into())),
                },
                eq_pred(1, "id", 1, 0.001),
            ],
            ops: vec![
                OpNode::new(0, OpKind::TableScan { slot: 0, table: "person_knows_person".into() }),
                OpNode::new(1, OpKind::TableScan { slot: 1, table: "person".into() }),
            ],
            proj: Projection::default(),
        };
        struct S;
        impl PlanStats for S {
            fn total_rows(&self) -> f64 {
                2000.0
            }
            fn label_rows(&self, _l: Option<snb_core::VertexLabel>) -> f64 {
                1000.0
            }
            fn avg_degree(&self, _l: Option<snb_core::VertexLabel>, _d: Direction, _e: Option<snb_core::EdgeLabel>) -> f64 {
                10.0
            }
            fn table_rows(&self, t: &str) -> f64 {
                if t == "person" { 1000.0 } else { 5000.0 }
            }
            fn table_indexed(&self, _t: &str, _c: &str) -> bool {
                true
            }
        }
        let trace = optimize(&mut plan, &S).unwrap();
        assert!(trace.fires.iter().any(|f| f.rule == "join_order"));
        assert_eq!(plan.ops[0].binds(), 1, "anchored person table seeds the join");
        assert_eq!(plan.ops[0].strategy, Strategy::IndexEq("id".into()));
    }

    #[test]
    fn seq_scan_costs_every_row_and_probe_costs_one_key() {
        // The Complex2Hop arm: k1.src = $1 (indexed), k2 joined on
        // k1.dst, p joined on k2.dst and filtered on an unindexed name.
        let join = |a: usize, ac: &str, b: usize, bc: &str, payload: usize| Pred {
            refs: vec![a, b],
            sel: 0.1,
            desc: format!("s{a}.{ac} = s{b}.{bc}"),
            payload,
            anchor: None,
            join: Some((a, ac.into(), b, bc.into())),
        };
        let mut plan = Plan {
            kind: PlanKind::Sql,
            slots: vec![node_slot("k1", None), node_slot("k2", None), node_slot("p", None)],
            preds: vec![
                eq_pred(0, "src", 0, 0.1),
                join(1, "src", 0, "dst", 1),
                join(2, "id", 1, "dst", 2),
                eq_pred(2, "firstName", 3, 0.1),
            ],
            ops: vec![
                OpNode::new(0, OpKind::TableScan { slot: 0, table: "person_knows_person".into() }),
                OpNode::new(1, OpKind::TableScan { slot: 1, table: "person_knows_person".into() }),
                OpNode::new(2, OpKind::TableScan { slot: 2, table: "person".into() }),
            ],
            proj: Projection::default(),
        };
        struct S;
        impl PlanStats for S {
            fn table_rows(&self, t: &str) -> f64 {
                if t == "person" { 5700.0 } else { 21000.0 }
            }
            fn table_indexed(&self, _t: &str, c: &str) -> bool {
                c != "firstName"
            }
            fn table_distinct(&self, _t: &str, _c: &str) -> Option<f64> {
                Some(5600.0)
            }
        }
        optimize(&mut plan, &S).unwrap();
        let order: Vec<usize> = plan.ops.iter().map(|o| o.binds()).collect();
        assert_eq!(order, vec![0, 1, 2], "seeded from the probe, person joined last");
        assert_eq!(plan.ops[0].strategy, Strategy::IndexEq("src".into()));
        assert!((plan.ops[0].est_rows - 21000.0 / 5600.0).abs() < 1e-9);
        assert_eq!(plan.ops[2].strategy, Strategy::Seq);
        assert_eq!(plan.ops[2].est_rows, 5700.0, "a filtered seq scan still reads every row");
    }

    #[test]
    fn unresolvable_predicate_is_caught() {
        let mut plan = Plan {
            kind: PlanKind::Cypher,
            slots: vec![node_slot("a", None)],
            preds: vec![Pred { refs: vec![5], sel: 0.5, desc: "bad".into(), payload: 0, anchor: None, join: None }],
            ops: vec![OpNode::new(0, OpKind::NodeScan { slot: 0, label: None })],
            proj: Projection::default(),
        };
        assert!(optimize(&mut plan, &NoStats).is_err());
    }
}
