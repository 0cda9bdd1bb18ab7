//! Cost-based query planning: index point lookups, predicate pushdown,
//! hash joins, and join-order enumeration.
//!
//! The planner lowers a `SELECT ... WHERE ...` into a left-deep pipeline
//! of per-table steps. It:
//!
//! * estimates per-predicate selectivity from per-column
//!   [`TableStats`] (row counts, NDV, min/max, equi-depth histograms —
//!   see `stats.rs`);
//! * prices **scan vs. index point lookup** per table with the model in
//!   `cost.rs`, so a broad predicate (`arch = 'x86_64'` matching 90% of
//!   rows) scans while a selective one probes;
//! * hash-joins on the cheapest connecting equality, probing the joined
//!   table's cached hash index;
//! * **enumerates join orders** — exact dynamic programming over subsets
//!   for ≤ [`DP_TABLE_LIMIT`] tables, greedy above — instead of taking
//!   FROM order.
//!
//! Byte-identical-to-scan guarantees (checked by the differential
//! proptest in `tests/proptest_plan.rs`):
//!
//! * **candidates are supersets** — index probes may return rows not
//!   equal under [`Value::sql_cmp`]'s Int↔Text coercion, so the
//!   originating conjunct stays in the step filter and every join
//!   candidate is re-verified with `sql_cmp`;
//! * **order is preserved** — the scan path enumerates the cross product
//!   lexicographically in FROM order. A plan that executes in FROM order
//!   reproduces that order for free (ascending candidates,
//!   accumulator-order extension); a plan that reorders tables sets
//!   [`SelectPlan::reordered`], and the pipeline sorts surviving tuples
//!   by their FROM-order row ids (tuples are distinct, so the order is
//!   total and deterministic) before the executor sees them;
//! * **errors are preserved** — the planner refuses (returns `None`, the
//!   executor falls back to the scan path) unless every column reference
//!   in the WHERE clause resolves uniquely.
//!
//! Tuples are carried as row ids — one `u32` per executed step, in one
//! flat buffer whose stride grows by one per step — and handed to the
//! executor as FROM-order tuples of the same shape. Nothing here clones
//! a value: filters and residuals evaluate against borrowed rows, and the
//! executor clones only the projected cells of the tuples that survive.

use crate::ast::{BinOp, ColumnRef, Expr};
use crate::cost;
use crate::exec::{eval, gather, resolve_column, RowEnv};
use crate::stats::TableStats;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::cmp::Ordering;
use std::sync::Arc;

/// Exact DP join-order enumeration up to this many FROM tables; greedy
/// beyond (2^n states stop being cheap).
pub(crate) const DP_TABLE_LIMIT: usize = 6;

/// How one FROM table's rows are enumerated.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Access {
    /// Enumerate every row.
    Scan,
    /// Probe the table's hash index with a literal. Candidates are a
    /// superset; the originating conjunct stays in the step filter.
    IndexEq {
        /// Column index within the table.
        column: usize,
        /// The literal probed for.
        literal: Value,
    },
}

/// Hash-join linkage: equality between a column of an earlier *executed*
/// step and a column of this step's table, whose hash index each
/// accumulated tuple probes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinKey {
    /// Execution-step index of the earlier step supplying probe values.
    pub left_step: usize,
    /// Column index within that step's table.
    pub left_col: usize,
    /// Column index within this step's table.
    pub right_col: usize,
}

/// One per-table step of the pipeline, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Step {
    /// FROM position of the table this step enumerates.
    pub table: usize,
    /// Row enumeration strategy (ignored for joins, which probe).
    pub access: Access,
    /// Join against the accumulated prefix (`None` for step 0 and for
    /// genuine cross joins).
    pub join: Option<JoinKey>,
    /// Pushed-down single-table conjuncts; a row must satisfy all.
    pub filter: Vec<Expr>,
    /// Estimated tuples alive after this step.
    pub est_rows: f64,
    /// Estimated cumulative cost through this step.
    pub est_cost: f64,
}

/// A planned SELECT pipeline. Plans reference tables by FROM position
/// and columns by index, so a plan stays valid as rows change and is
/// cached per statement (invalidated when the schema generation or the
/// stats epoch bumps — see `Database::query_ref`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelectPlan {
    /// Steps in execution order (a permutation of the FROM tables).
    pub steps: Vec<Step>,
    /// Conjuncts not consumed above: `(ready_after, expr)` — evaluated on
    /// the accumulated row right after execution step `ready_after`.
    pub residual: Vec<(usize, Expr)>,
    /// Execution order differs from FROM order, so the executor re-sorts
    /// surviving tuples into FROM-order lexicographic order (telemetry:
    /// `sql.opt.join_reorders`).
    pub reordered: bool,
    /// Estimated joined-row count before residual/projection (feeds the
    /// estimated-vs-actual telemetry histogram).
    pub est_rows: f64,
    /// Estimated total plan cost in `cost.rs` work units.
    pub est_cost: f64,
}

impl SelectPlan {
    /// Whether executing this plan touches a hash index anywhere — a
    /// point lookup or a join. Telemetry classifies executions as
    /// "indexed" vs "scan" with this.
    pub(crate) fn uses_index(&self) -> bool {
        self.steps.iter().any(|s| matches!(s.access, Access::IndexEq { .. }) || s.join.is_some())
    }
}

/// What planning did — telemetry inputs for `QueryStats`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlanInfo {
    /// Table-statistics (re)builds triggered by this planning pass.
    pub stats_builds: u64,
}

/// Split an expression into its top-level AND conjuncts.
fn split_and(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            split_and(lhs, out);
            split_and(rhs, out);
        }
        other => out.push(other.clone()),
    }
}

/// Visit every column reference in an expression.
fn walk_columns<'e>(expr: &'e Expr, f: &mut impl FnMut(&'e ColumnRef)) {
    match expr {
        Expr::Literal(_) => {}
        Expr::Column(c) => f(c),
        Expr::Binary { lhs, rhs, .. } => {
            walk_columns(lhs, f);
            walk_columns(rhs, f);
        }
        Expr::Not(inner) => walk_columns(inner, f),
        Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::InList { expr, .. } => {
            walk_columns(expr, f)
        }
    }
}

/// Resolve a column reference to `(from_position, column_index)`,
/// requiring a unique match (the scan path's resolution rules).
fn resolve_ref(tables: &[(&str, &Table)], col: &ColumnRef) -> Option<(usize, usize)> {
    resolve_column(tables, col).ok()
}

/// Recognize `col = literal` (either side), resolved against `tables`.
fn literal_eq(expr: &Expr, tables: &[(&str, &Table)]) -> Option<(usize, usize, Value)> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = expr else {
        return None;
    };
    let (col, lit) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => (c, v),
        _ => return None,
    };
    let (pos, idx) = resolve_ref(tables, col)?;
    Some((pos, idx, lit.clone()))
}

/// Recognize `t1.c1 = t2.c2` across two distinct tables.
fn column_eq(expr: &Expr, tables: &[(&str, &Table)]) -> Option<((usize, usize), (usize, usize))> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = expr else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) else {
        return None;
    };
    let ra = resolve_ref(tables, a)?;
    let rb = resolve_ref(tables, b)?;
    if ra.0 == rb.0 {
        return None;
    }
    Some((ra, rb))
}

/// Cross-table equality conjunct: `((ta, ca), (tb, cb), expr)`.
type EquiConjunct = ((usize, usize), (usize, usize), Expr);

/// The WHERE clause, classified per table.
struct Analysis {
    /// Pushed-down single-table conjuncts, per FROM position.
    filters: Vec<Vec<Expr>>,
    /// `col = literal` conjuncts per FROM position (conjunct order).
    literal_eqs: Vec<Vec<(usize, Value)>>,
    /// Cross-table equality conjuncts, see [`EquiConjunct`].
    equis: Vec<EquiConjunct>,
    /// Everything else: `(touched FROM positions, expr)`.
    other: Vec<(Vec<usize>, Expr)>,
}

fn analyze(tables: &[(&str, &Table)], where_clause: &Expr) -> Option<Analysis> {
    // Every referenced column must resolve uniquely, or planning is off.
    let mut all_resolve = true;
    walk_columns(where_clause, &mut |c| {
        if resolve_ref(tables, c).is_none() {
            all_resolve = false;
        }
    });
    if !all_resolve {
        return None;
    }

    let mut conjuncts = Vec::new();
    split_and(where_clause, &mut conjuncts);

    let n = tables.len();
    let mut a = Analysis {
        filters: vec![Vec::new(); n],
        literal_eqs: vec![Vec::new(); n],
        equis: Vec::new(),
        other: Vec::new(),
    };
    for conj in conjuncts {
        let mut touched: Vec<usize> = Vec::new();
        walk_columns(&conj, &mut |c| {
            let (pos, _) = resolve_ref(tables, c).expect("validated above");
            if !touched.contains(&pos) {
                touched.push(pos);
            }
        });
        match touched.len() {
            0 => a.other.push((Vec::new(), conj)), // constant predicate
            1 => {
                let t = touched[0];
                if let Some((pos, idx, lit)) = literal_eq(&conj, tables) {
                    debug_assert_eq!(pos, t);
                    a.literal_eqs[t].push((idx, lit));
                }
                // The conjunct itself always remains a filter: index
                // candidates are supersets and must be re-checked.
                a.filters[t].push(conj);
            }
            2 => match column_eq(&conj, tables) {
                Some((ra, rb)) => a.equis.push((ra, rb, conj)),
                None => a.other.push((touched, conj)),
            },
            _ => a.other.push((touched, conj)),
        }
    }
    Some(a)
}

/// Estimated fraction of a single table's rows satisfying one pushed
/// conjunct.
fn conjunct_selectivity(expr: &Expr, tables: &[(&str, &Table)], stats: &TableStats) -> f64 {
    // `col <op> literal` in either orientation (flipping the operator).
    fn col_op_lit<'e>(
        expr: &'e Expr,
        tables: &[(&str, &Table)],
    ) -> Option<(usize, BinOp, &'e Value)> {
        let Expr::Binary { op, lhs, rhs } = expr else {
            return None;
        };
        match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) => Some((resolve_ref(tables, c)?.1, *op, v)),
            (Expr::Literal(v), Expr::Column(c)) => {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::LtEq => BinOp::GtEq,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::GtEq => BinOp::LtEq,
                    other => *other,
                };
                Some((resolve_ref(tables, c)?.1, flipped, v))
            }
            _ => None,
        }
    }

    match expr {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            conjunct_selectivity(lhs, tables, stats) * conjunct_selectivity(rhs, tables, stats)
        }
        Expr::Binary { op: BinOp::Or, lhs, rhs } => {
            let a = conjunct_selectivity(lhs, tables, stats);
            let b = conjunct_selectivity(rhs, tables, stats);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        Expr::Binary { .. } => match col_op_lit(expr, tables) {
            Some((col, op, lit)) => stats.est_cmp_fraction(col, op, lit),
            None => 0.33,
        },
        Expr::Not(inner) => 1.0 - conjunct_selectivity(inner, tables, stats),
        Expr::IsNull { expr: inner, negated } => match inner.as_ref() {
            Expr::Column(c) => match resolve_ref(tables, c) {
                Some((_, col)) => {
                    let f = stats.null_fraction(col);
                    if *negated {
                        1.0 - f
                    } else {
                        f
                    }
                }
                None => 0.33,
            },
            _ => 0.33,
        },
        Expr::InList { expr: inner, list, negated } => match inner.as_ref() {
            Expr::Column(c) => match resolve_ref(tables, c) {
                Some((_, col)) => {
                    let rows = stats.rows.max(1) as f64;
                    let hit: f64 = list
                        .iter()
                        .map(|lit| stats.est_eq_rows(col, lit) / rows)
                        .sum::<f64>()
                        .clamp(0.0, 1.0);
                    if *negated {
                        1.0 - hit
                    } else {
                        hit
                    }
                }
                None => 0.33,
            },
            _ => 0.33,
        },
        Expr::Like { negated, .. } => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        Expr::Literal(_) | Expr::Column(_) => 0.5,
    }
}

/// How the DP extends a partial join with one more table.
#[derive(Debug, Clone)]
struct Extension {
    table: usize,
    access: Access,
    /// Index into `Analysis::equis` of the hash-join key, when joined.
    join: Option<usize>,
}

/// Per-table planning facts gathered once.
struct TableFacts {
    stats: Arc<TableStats>,
    /// Estimated rows surviving this table's pushed filters.
    base_est: f64,
    /// Cheapest standalone access and its cost.
    access: Access,
    access_cost: f64,
}

/// Plan a WHERE clause over the given FROM tables — per-table facts,
/// then join-order enumeration — also reporting what planning did (for
/// telemetry). `None` when any column reference fails unique resolution
/// or there are more than 32 tables; the executor then scans.
pub(crate) fn plan_select(
    tables: &[(&str, &Table)],
    where_clause: &Expr,
) -> Option<(SelectPlan, PlanInfo)> {
    if tables.is_empty() || tables.len() > 32 {
        return None; // join-set masks are u32; the scan path handles it
    }
    let analysis = analyze(tables, where_clause)?;
    let n = tables.len();
    let mut info = PlanInfo::default();

    // Gather stats and per-table access choices.
    let facts: Vec<TableFacts> = (0..n)
        .map(|t| {
            let (stats, built) = tables[t].1.stats_with_info();
            if built {
                info.stats_builds += 1;
            }
            let rows = stats.rows as f64;
            let nf = analysis.filters[t].len();
            let sel: f64 = analysis.filters[t]
                .iter()
                .map(|f| conjunct_selectivity(f, tables, &stats))
                .product();
            let base_est = rows * sel.clamp(0.0, 1.0);
            // Candidate accesses: a scan, or a probe on any literal-eq.
            let mut access = Access::Scan;
            let mut access_cost = cost::scan_access_cost(rows, nf);
            for (col, lit) in &analysis.literal_eqs[t] {
                let cand = stats.est_eq_rows(*col, lit);
                let build = cost::index_build_cost(
                    rows,
                    tables[t].1.columns()[*col].ty,
                    tables[t].1.has_eq_index(*col),
                );
                let c = cost::index_access_cost(cand, nf, build);
                if c < access_cost {
                    access_cost = c;
                    access = Access::IndexEq { column: *col, literal: lit.clone() };
                }
            }
            TableFacts { stats, base_est, access, access_cost }
        })
        .collect();

    // Price extending a partial join (`mask`, `cur_rows` tuples) with
    // table `t`. Returns (added cost, resulting rows, extension).
    let extend = |mask: u32, cur_rows: f64, t: usize| -> (f64, f64, Extension) {
        let f = &facts[t];
        let rows_t = f.stats.rows as f64;
        let nf = analysis.filters[t].len();
        // Equis connecting t to the current set, as (equi index, left
        // (pos, col) inside the set, right col on t).
        let connecting: Vec<(usize, (usize, usize), usize)> = analysis
            .equis
            .iter()
            .enumerate()
            .filter_map(|(i, (ra, rb, _))| {
                if ra.0 == t && mask & (1 << rb.0) != 0 {
                    Some((i, *rb, ra.1))
                } else if rb.0 == t && mask & (1 << ra.0) != 0 {
                    Some((i, *ra, rb.1))
                } else {
                    None
                }
            })
            .collect();
        if connecting.is_empty() {
            // Cross join: enumerate t's filtered rows once, multiply.
            let out = cur_rows * f.base_est;
            let added = f.access_cost + cost::emit_cost(out);
            return (added, out, Extension { table: t, access: f.access.clone(), join: None });
        }
        // Joint output estimate: every connecting equi applies its
        // selectivity (the first is the physical join key, the rest are
        // verified as residuals).
        let mut out = cur_rows * f.base_est;
        for &(_, (lpos, lcol), rcol) in &connecting {
            let ndv_l = facts[lpos].stats.ndv(lcol);
            let ndv_r = f.stats.ndv(rcol);
            out /= ndv_l.max(ndv_r).max(1.0);
        }
        // Hash-join on the connecting equi whose probes cost least.
        let mut best: Option<(f64, usize)> = None;
        for &(i, _, rcol) in &connecting {
            let raw_candidates = cur_rows * rows_t / f.stats.ndv(rcol).max(1.0);
            let build = cost::index_build_cost(
                rows_t,
                tables[t].1.columns()[rcol].ty,
                tables[t].1.has_eq_index(rcol),
            );
            let c = cost::hash_join_cost(cur_rows, raw_candidates, nf, build);
            if best.is_none_or(|(bc, _)| c < bc) {
                best = Some((c, i));
            }
        }
        let (join_cost, equi_idx) = best.expect("connecting is non-empty");
        let added = join_cost + cost::emit_cost(out);
        (added, out, Extension { table: t, access: Access::Scan, join: Some(equi_idx) })
    };

    // Enumerate the join order: exact DP over subsets when small, greedy
    // otherwise. Ties break toward FROM order (ascending t, strict <).
    let order: Vec<Extension> = if n == 1 {
        vec![Extension { table: 0, access: facts[0].access.clone(), join: None }]
    } else if n <= DP_TABLE_LIMIT {
        // best[mask] = (cost, rows, predecessor mask, extension taken).
        let full = (1u32 << n) - 1;
        let mut best: Vec<Option<(f64, f64, u32, Extension)>> = vec![None; (full + 1) as usize];
        for t in 0..n {
            let f = &facts[t];
            let c = f.access_cost + cost::emit_cost(f.base_est);
            best[1usize << t] = Some((
                c,
                f.base_est,
                0,
                Extension { table: t, access: f.access.clone(), join: None },
            ));
        }
        for mask in 1..=full {
            let Some((cur_cost, cur_rows, _, _)) = best[mask as usize].clone() else {
                continue;
            };
            for t in 0..n {
                if mask & (1 << t) != 0 {
                    continue;
                }
                let (added, out, ext) = extend(mask, cur_rows, t);
                let next = mask | (1 << t);
                let total = cur_cost + added;
                if best[next as usize].as_ref().is_none_or(|(c, ..)| total < *c) {
                    best[next as usize] = Some((total, out, mask, ext));
                }
            }
        }
        // Walk back from the full mask.
        let mut rev = Vec::with_capacity(n);
        let mut mask = full;
        while mask != 0 {
            let (_, _, prev, ext) = best[mask as usize].clone().expect("reachable");
            rev.push(ext);
            mask = prev;
        }
        rev.reverse();
        rev
    } else {
        // Greedy: cheapest first table, then cheapest extension.
        let mut order = Vec::with_capacity(n);
        let start = (0..n)
            .min_by(|&a, &b| {
                let ca = facts[a].access_cost + cost::emit_cost(facts[a].base_est);
                let cb = facts[b].access_cost + cost::emit_cost(facts[b].base_est);
                ca.partial_cmp(&cb).unwrap_or(Ordering::Equal)
            })
            .expect("n > 0");
        let mut cur_rows = facts[start].base_est;
        let mut mask = 1u32 << start;
        order.push(Extension { table: start, access: facts[start].access.clone(), join: None });
        while order.len() < n {
            let mut pick: Option<(f64, f64, Extension)> = None;
            for t in 0..n {
                if mask & (1 << t) != 0 {
                    continue;
                }
                let (added, out, ext) = extend(mask, cur_rows, t);
                if pick.as_ref().is_none_or(|(c, ..)| added < *c) {
                    pick = Some((added, out, ext));
                }
            }
            let (_, out, ext) = pick.expect("tables remain");
            mask |= 1 << ext.table;
            cur_rows = out;
            order.push(ext);
        }
        order
    };

    // Lower the chosen order into steps.
    let mut exec_pos = vec![0usize; n];
    for (k, ext) in order.iter().enumerate() {
        exec_pos[ext.table] = k;
    }
    let mut used = vec![false; analysis.equis.len()];
    let mut steps = Vec::with_capacity(n);
    let mut cum_cost = 0.0;
    let mut cur_rows = 0.0;
    let mut mask = 0u32;
    for (k, ext) in order.iter().enumerate() {
        let t = ext.table;
        let (added, out) = if k == 0 {
            (facts[t].access_cost + cost::emit_cost(facts[t].base_est), facts[t].base_est)
        } else {
            let (a, o, _) = extend(mask, cur_rows, t);
            (a, o)
        };
        cum_cost += added;
        cur_rows = out;
        mask |= 1 << t;
        let join = ext.join.map(|equi_idx| {
            used[equi_idx] = true;
            let (ra, rb, _) = &analysis.equis[equi_idx];
            let (left, right_col) = if ra.0 == t { (*rb, ra.1) } else { (*ra, rb.1) };
            JoinKey { left_step: exec_pos[left.0], left_col: left.1, right_col }
        });
        steps.push(Step {
            table: t,
            access: ext.access.clone(),
            join,
            filter: analysis.filters[t].clone(),
            est_rows: out,
            est_cost: cum_cost,
        });
    }

    // Residuals: ready once every touched table has executed.
    let ready_for =
        |touched: &[usize]| -> usize { touched.iter().map(|&t| exec_pos[t]).max().unwrap_or(0) };
    let mut residual: Vec<(usize, Expr)> = Vec::new();
    for (i, (ra, rb, expr)) in analysis.equis.iter().enumerate() {
        if !used[i] {
            residual.push((ready_for(&[ra.0, rb.0]), expr.clone()));
        }
    }
    for (touched, expr) in &analysis.other {
        residual.push((ready_for(touched), expr.clone()));
    }

    let plan = SelectPlan {
        reordered: order.iter().enumerate().any(|(k, ext)| ext.table != k),
        est_rows: cur_rows,
        est_cost: cum_cost,
        steps,
        residual,
    };
    Some((plan, info))
}

/// Do a step's pushed-down filters pass one row of its table?
fn step_filter(filters: &[Expr], single: &[(&str, &Table)], row: u32) -> Result<bool> {
    let env = RowEnv { tables: single, rows: &[&single[0].1.rows()[row as usize]] };
    for f in filters {
        if !eval(f, &env)?.is_truthy() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Execute a plan, returning the surviving tuples — one row id per FROM
/// table, in FROM order — identical (ids and order) to the scan path's
/// filtered cross product. `examined` tallies every row enumerated or
/// index candidate probed (the telemetry behind `sql.rows.examined`).
pub(crate) fn execute_plan(
    plan: &SelectPlan,
    tables: &[(&str, &Table)],
    examined: &mut u64,
) -> Result<Vec<u32>> {
    let n = tables.len();
    debug_assert_eq!(plan.steps.len(), n);

    // Tables in execution order, for residual evaluation environments.
    let exec_tables: Vec<(&str, &Table)> = plan.steps.iter().map(|s| tables[s.table]).collect();

    // Tuples of per-step row ids joined so far: after step k, each is
    // k + 1 wide.
    let mut acc: Vec<u32> = Vec::new();
    let mut probe_scratch: Vec<u32> = Vec::new();
    let mut env_rows: Vec<&[Value]> = Vec::new();

    for (k, step) in plan.steps.iter().enumerate() {
        let t = tables[step.table].1;
        let single = [(tables[step.table].0, t)];

        acc = match &step.join {
            // Step 0 or an explicit cross join: enumerate this table's
            // (filtered) rows once, then extend every tuple.
            None => {
                let mut right: Vec<u32> = Vec::new();
                match &step.access {
                    Access::Scan => {
                        *examined += t.len() as u64;
                        for row in 0..t.len() as u32 {
                            if step_filter(&step.filter, &single, row)? {
                                right.push(row);
                            }
                        }
                    }
                    Access::IndexEq { column, literal } => {
                        let index = t.eq_index(*column);
                        let candidates = index.probe(literal, &mut probe_scratch);
                        *examined += candidates.len() as u64;
                        right.reserve_exact(candidates.len());
                        for &row in candidates {
                            if step_filter(&step.filter, &single, row)? {
                                right.push(row);
                            }
                        }
                    }
                }
                if k == 0 {
                    right
                } else {
                    let mut next = Vec::new();
                    for tuple in acc.chunks_exact(k) {
                        for &r in &right {
                            next.extend_from_slice(tuple);
                            next.push(r);
                        }
                    }
                    next
                }
            }
            // Hash join: probe this table's index with each accumulated
            // tuple's key value. Ascending buckets + accumulator order
            // reproduce the cross product's lexicographic order (when
            // executing in FROM order).
            Some(key) => {
                let index = t.eq_index(key.right_col);
                let left_rows = exec_tables[key.left_step].1.rows();
                // Many tuples may probe one row, so with filters to pass
                // each row's verdict is kept (0 unknown, 1 pass, 2 fail);
                // the other step kinds meet a row once and keep none.
                let mut memo = vec![0u8; if step.filter.is_empty() { 0 } else { t.len() }];
                let mut next = Vec::new();
                for tuple in acc.chunks_exact(k) {
                    let lval = &left_rows[tuple[key.left_step] as usize][key.left_col];
                    if lval.is_null() {
                        continue; // NULL joins nothing
                    }
                    let candidates = index.probe(lval, &mut probe_scratch);
                    *examined += candidates.len() as u64;
                    for &r in candidates {
                        let rval = &t.rows()[r as usize][key.right_col];
                        if lval.sql_cmp(rval) != Some(Ordering::Equal) {
                            continue; // candidate false positive
                        }
                        if !step.filter.is_empty() {
                            let verdict = &mut memo[r as usize];
                            if *verdict == 0 {
                                *verdict =
                                    if step_filter(&step.filter, &single, r)? { 1 } else { 2 };
                            }
                            if *verdict == 2 {
                                continue;
                            }
                        }
                        next.extend_from_slice(tuple);
                        next.push(r);
                    }
                }
                next
            }
        };

        // Residuals that became evaluable once step k executed, against
        // the tuple's borrowed rows.
        if plan.residual.iter().any(|(ready, _)| *ready == k) {
            let prefix = &exec_tables[..=k];
            let mut kept = Vec::with_capacity(acc.len());
            for tuple in acc.chunks_exact(k + 1) {
                env_rows.clear();
                env_rows
                    .extend(prefix.iter().zip(tuple).map(|((_, t), &r)| &t.rows()[r as usize][..]));
                let env = RowEnv { tables: prefix, rows: &env_rows };
                let mut pass = true;
                for (ready, expr) in &plan.residual {
                    if *ready == k && !eval(expr, &env)?.is_truthy() {
                        pass = false;
                        break;
                    }
                }
                if pass {
                    kept.extend_from_slice(tuple);
                }
            }
            acc = kept;
        }

        if acc.is_empty() {
            return Ok(acc);
        }
    }

    // A reordered pipeline holds its tuples in execution order and out of
    // cross-product order: permute each into FROM order, then sort on
    // FROM-order row ids. Tuples are distinct combinations, so the order
    // is total — no tie to break.
    if plan.reordered {
        let mut slot_of = vec![0usize; n];
        for (slot, s) in plan.steps.iter().enumerate() {
            slot_of[s.table] = slot;
        }
        acc = acc.chunks_exact(n).flat_map(|tuple| slot_of.iter().map(|&s| tuple[s])).collect();
        let mut order: Vec<u32> = (0..(acc.len() / n) as u32).collect();
        order.sort_unstable_by_key(|&i| &acc[i as usize * n..][..n]);
        acc = gather(&acc, n, &order);
    }
    Ok(acc)
}

/// Render a plan (or the scan fallback) as EXPLAIN output lines, in
/// execution order. A plan annotates each step with estimated rows and
/// cumulative cost.
pub(crate) fn render_plan(
    tables: &[(&str, &Table)],
    plan: Option<&SelectPlan>,
    where_clause: Option<&Expr>,
) -> Vec<String> {
    let names: Vec<&str> = tables.iter().map(|(name, _)| *name).collect();
    let mut lines = vec![format!("select from {}", names.join(", "))];
    match plan {
        Some(plan) => {
            for (k, step) in plan.steps.iter().enumerate() {
                let t = tables[step.table].1;
                let mut line = format!("  {}: ", names[step.table]);
                match &step.join {
                    Some(key) => {
                        let left_from = plan.steps[key.left_step].table;
                        line.push_str(&format!(
                            "hash join({}.{} = {}.{}), ",
                            names[left_from],
                            tables[left_from].1.columns()[key.left_col].name,
                            names[step.table],
                            t.columns()[key.right_col].name,
                        ));
                    }
                    None if k == 0 => {}
                    None => line.push_str("nested loop, "),
                }
                match &step.access {
                    Access::Scan => line.push_str("scan"),
                    Access::IndexEq { column, literal } => {
                        line.push_str(&format!(
                            "index({} = {})",
                            t.columns()[*column].name,
                            Expr::Literal(literal.clone()),
                        ));
                    }
                }
                if !step.filter.is_empty() {
                    let fs: Vec<String> = step.filter.iter().map(|f| f.to_string()).collect();
                    line.push_str(&format!(" filter({})", fs.join(" and ")));
                }
                line.push_str(&format!(
                    " [est {} rows, cost {}]",
                    step.est_rows.round() as u64,
                    step.est_cost.round() as u64
                ));
                lines.push(line);
            }
            for (ready, expr) in &plan.residual {
                let name = names[plan.steps[*ready].table];
                lines.push(format!("  residual after {name}: {expr}"));
            }
            if plan.reordered {
                let order: Vec<&str> = plan.steps.iter().map(|s| names[s.table]).collect();
                lines.push(format!("  join order: {} (cost-based)", order.join(", ")));
            }
            lines.push(format!(
                "  estimated: {} rows, total cost {}",
                plan.est_rows.round() as u64,
                plan.est_cost.round() as u64
            ));
        }
        None => {
            for (k, name) in names.iter().enumerate() {
                if k == 0 {
                    lines.push(format!("  {name}: scan"));
                } else {
                    lines.push(format!("  {name}: nested loop, scan"));
                }
            }
            if let Some(expr) = where_clause {
                lines.push(format!("  where: {expr} (evaluated on the cross product)"));
            }
        }
    }
    lines
}
