//! Cost-based query planning: index point lookups, predicate pushdown,
//! hash and sort-merge joins, and join-order enumeration.
//!
//! The planner lowers a `SELECT ... WHERE ...` into a left-deep pipeline
//! of per-table steps. Unlike the original heuristic planner (kept as
//! [`PlannerMode::Heuristic`] — the benchmark baseline), the default
//! [`PlannerMode::CostBased`] planner:
//!
//! * estimates per-predicate selectivity from per-column
//!   [`TableStats`] (row counts, NDV, min/max, equi-depth histograms —
//!   see `stats.rs`);
//! * prices **scan vs. index point lookup** per table with the model in
//!   `cost.rs`, so a broad predicate (`arch = 'x86_64'` matching 90% of
//!   rows) scans while a selective one probes;
//! * prices **hash vs. sort-merge** per join — warm hash indexes always
//!   win, but a large *cold* text-keyed join is cheaper to sort (borrowed
//!   keys, no string clones) than to hash (clone every string);
//! * **enumerates join orders** — exact dynamic programming over subsets
//!   for ≤ [`DP_TABLE_LIMIT`] tables, greedy above — instead of taking
//!   FROM order.
//!
//! Byte-identical-to-scan guarantees (checked by the differential
//! proptest in `tests/proptest_plan.rs`):
//!
//! * **candidates are supersets** — index probes and merge-join key
//!   groups may contain rows not equal under [`Value::sql_cmp`]'s
//!   Int↔Text coercion, so the originating conjunct stays in the step
//!   filter / every group pair is re-verified with `sql_cmp`;
//! * **order is preserved** — the scan path enumerates the cross product
//!   lexicographically in FROM order. A plan that executes in FROM order
//!   with hash joins only reproduces that order for free (ascending
//!   candidates, accumulator-order extension); any plan that reorders
//!   tables or merge-joins sets [`SelectPlan::restore_order`], and the
//!   pipeline sorts surviving tuples by their FROM-order row ids (tuples
//!   are distinct, so the order is total and deterministic) before the
//!   executor sees them;
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
use crate::stats::{KeyRef, TableStats};
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::cmp::Ordering;
use std::sync::Arc;

/// Exact DP join-order enumeration up to this many FROM tables; greedy
/// beyond (2^n states stop being cheap).
pub const DP_TABLE_LIMIT: usize = 6;

/// How one FROM table's rows are enumerated.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
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

/// Physical join algorithm for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Probe the right table's hash index with each accumulated tuple.
    Hash,
    /// Sort both sides by normalized key and merge equal-key runs.
    SortMerge,
}

/// Join linkage: equality between a column of an earlier *executed* step
/// and a column of this step's table.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinKey {
    /// Execution-step index of the earlier step supplying probe values.
    pub left_step: usize,
    /// Column index within that step's table.
    pub left_col: usize,
    /// Column index within this step's table.
    pub right_col: usize,
    /// Physical algorithm.
    pub algo: JoinAlgo,
}

/// One per-table step of the pipeline, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// FROM position of the table this step enumerates.
    pub table: usize,
    /// Row enumeration strategy (ignored for hash joins, which probe).
    pub access: Access,
    /// Join against the accumulated prefix (`None` for step 0 and for
    /// genuine cross joins).
    pub join: Option<JoinKey>,
    /// Pushed-down single-table conjuncts; a row must satisfy all.
    pub filter: Vec<Expr>,
    /// Estimated tuples alive after this step (0 when not costed).
    pub est_rows: f64,
    /// Estimated cumulative cost through this step (0 when not costed).
    pub est_cost: f64,
}

/// A planned SELECT pipeline. Plans reference tables by FROM position
/// and columns by index, so a plan stays valid as rows change and is
/// cached per statement (invalidated when the schema generation or the
/// stats epoch bumps — see `Database::query_ref`).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// Steps in execution order (a permutation of the FROM tables).
    pub steps: Vec<Step>,
    /// Conjuncts not consumed above: `(ready_after, expr)` — evaluated on
    /// the accumulated row right after execution step `ready_after`.
    pub residual: Vec<(usize, Expr)>,
    /// Executor must re-sort surviving tuples into FROM-order
    /// lexicographic order (set when reordered or merge-joined).
    pub restore_order: bool,
    /// Execution order differs from FROM order (telemetry:
    /// `sql.opt.join_reorders`).
    pub reordered: bool,
    /// Whether cost estimation ran (false for heuristic plans).
    pub costed: bool,
    /// Estimated joined-row count before residual/projection (feeds the
    /// estimated-vs-actual telemetry histogram).
    pub est_rows: f64,
    /// Estimated total plan cost in `cost.rs` work units.
    pub est_cost: f64,
}

impl SelectPlan {
    /// Whether executing this plan touches a hash index anywhere — a
    /// point lookup or a hash join. Telemetry classifies executions as
    /// "indexed" vs "scan" with this.
    pub fn uses_index(&self) -> bool {
        self.steps.iter().any(|s| {
            matches!(s.access, Access::IndexEq { .. })
                || matches!(&s.join, Some(k) if k.algo == JoinAlgo::Hash)
        })
    }
}

/// Planner strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// Statistics-driven costing and join reordering (the default).
    #[default]
    CostBased,
    /// The original fixed-heuristic planner: FROM order, first
    /// `col = literal` becomes the index access, first connecting equi
    /// becomes a hash join. Kept as the benchmark/regression baseline.
    Heuristic,
}

/// Planner configuration, threaded through `Database::query_ref_config`
/// so tests can pin the baseline or a join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerConfig {
    /// Strategy.
    pub mode: PlannerMode,
    /// Force every join step onto one algorithm (the differential
    /// suites' forced paths); `None` lets the cost model choose.
    pub force_join: Option<JoinAlgo>,
}

/// What planning did — telemetry inputs for `QueryStats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanInfo {
    /// Table-statistics (re)builds triggered by this planning pass.
    pub stats_builds: u64,
    /// Whether cost estimation ran.
    pub costed: bool,
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

/// The WHERE clause, classified per table — shared by both planner
/// modes.
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
    /// `(index into Analysis::equis, algorithm)` when joined.
    join: Option<(usize, JoinAlgo)>,
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

/// Build a plan for a WHERE clause over the given FROM tables with the
/// default (cost-based) configuration, or `None` when any column
/// reference fails unique resolution.
pub fn plan_select(tables: &[(&str, &Table)], where_clause: &Expr) -> Option<SelectPlan> {
    plan_select_with(tables, where_clause, &PlannerConfig::default()).map(|(p, _)| p)
}

/// [`plan_select`] with an explicit configuration, also reporting what
/// planning did (for telemetry).
pub fn plan_select_with(
    tables: &[(&str, &Table)],
    where_clause: &Expr,
    config: &PlannerConfig,
) -> Option<(SelectPlan, PlanInfo)> {
    if tables.is_empty() || tables.len() > 32 {
        return None; // join-set masks are u32; the scan path handles it
    }
    let analysis = analyze(tables, where_clause)?;
    match config.mode {
        PlannerMode::Heuristic => Some(plan_heuristic(tables, analysis, config)),
        PlannerMode::CostBased => Some(plan_cost_based(tables, analysis, config)),
    }
}

/// The original PR-2 planner: FROM order, first literal-eq as access,
/// first connecting equi as a hash join.
fn plan_heuristic(
    tables: &[(&str, &Table)],
    analysis: Analysis,
    config: &PlannerConfig,
) -> (SelectPlan, PlanInfo) {
    let n = tables.len();
    let algo = config.force_join.unwrap_or(JoinAlgo::Hash);
    let mut steps: Vec<Step> = (0..n)
        .map(|t| Step {
            table: t,
            access: match analysis.literal_eqs[t].first() {
                Some((col, lit)) => Access::IndexEq { column: *col, literal: lit.clone() },
                None => Access::Scan,
            },
            join: None,
            filter: analysis.filters[t].clone(),
            est_rows: 0.0,
            est_cost: 0.0,
        })
        .collect();
    let mut used = vec![false; analysis.equis.len()];
    for (k, step) in steps.iter_mut().enumerate().skip(1) {
        for (i, (ra, rb, _)) in analysis.equis.iter().enumerate() {
            let (lo, hi) = if ra.0 < rb.0 { (ra, rb) } else { (rb, ra) };
            if !used[i] && hi.0 == k {
                step.join =
                    Some(JoinKey { left_step: lo.0, left_col: lo.1, right_col: hi.1, algo });
                used[i] = true;
                break;
            }
        }
    }
    let mut residual: Vec<(usize, Expr)> = Vec::new();
    for (i, (ra, rb, expr)) in analysis.equis.iter().enumerate() {
        if !used[i] {
            residual.push((ra.0.max(rb.0), expr.clone()));
        }
    }
    for (touched, expr) in &analysis.other {
        residual.push((touched.iter().copied().max().unwrap_or(0), expr.clone()));
    }
    let restore_order = algo == JoinAlgo::SortMerge && n > 1;
    (
        SelectPlan {
            steps,
            residual,
            restore_order,
            reordered: false,
            costed: false,
            est_rows: 0.0,
            est_cost: 0.0,
        },
        PlanInfo::default(),
    )
}

/// The cost-based planner: per-table facts, then join-order enumeration.
fn plan_cost_based(
    tables: &[(&str, &Table)],
    analysis: Analysis,
    config: &PlannerConfig,
) -> (SelectPlan, PlanInfo) {
    let n = tables.len();
    let mut info = PlanInfo { stats_builds: 0, costed: true };

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
        for &(i, (lpos, lcol), rcol) in &connecting {
            let _ = i;
            let ndv_l = facts[lpos].stats.ndv(lcol);
            let ndv_r = f.stats.ndv(rcol);
            out /= ndv_l.max(ndv_r).max(1.0);
        }
        // Pick the physical join key + algorithm by cost.
        let mut best: Option<(f64, usize, JoinAlgo)> = None;
        for &(i, (_lpos, _lcol), rcol) in &connecting {
            let ndv_r = f.stats.ndv(rcol).max(1.0);
            let raw_candidates = cur_rows * rows_t / ndv_r;
            let filtered_pairs = cur_rows * (f.base_est / ndv_r).max(0.0);
            let build = cost::index_build_cost(
                rows_t,
                tables[t].1.columns()[rcol].ty,
                tables[t].1.has_eq_index(rcol),
            );
            let hash = cost::hash_join_cost(cur_rows, raw_candidates, nf, build);
            let merge = cost::merge_join_cost(cur_rows, rows_t, f.base_est, nf, filtered_pairs);
            let choices: &[(JoinAlgo, f64)] = match config.force_join {
                Some(JoinAlgo::Hash) => &[(JoinAlgo::Hash, hash)],
                Some(JoinAlgo::SortMerge) => &[(JoinAlgo::SortMerge, merge)],
                None => &[(JoinAlgo::Hash, hash), (JoinAlgo::SortMerge, merge)],
            };
            for &(algo, c) in choices {
                if best.as_ref().is_none_or(|(bc, _, _)| c < *bc) {
                    best = Some((c, i, algo));
                }
            }
        }
        let (join_cost, equi_idx, algo) = best.expect("connecting is non-empty");
        let added = join_cost + cost::emit_cost(out);
        (added, out, Extension { table: t, access: Access::Scan, join: Some((equi_idx, algo)) })
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
        let join = ext.join.map(|(equi_idx, algo)| {
            used[equi_idx] = true;
            let (ra, rb, _) = &analysis.equis[equi_idx];
            let (left, right_col) = if ra.0 == t { (*rb, ra.1) } else { (*ra, rb.1) };
            JoinKey { left_step: exec_pos[left.0], left_col: left.1, right_col, algo }
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

    let reordered = order.iter().enumerate().any(|(k, ext)| ext.table != k);
    let merge_used =
        steps.iter().any(|s| matches!(&s.join, Some(k) if k.algo == JoinAlgo::SortMerge));
    let plan = SelectPlan {
        restore_order: (reordered || merge_used) && n > 0,
        reordered,
        costed: true,
        est_rows: cur_rows,
        est_cost: cum_cost,
        steps,
        residual,
    };
    (plan, info)
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

/// Sort-merge join: sort the (filtered) right rows and the accumulated
/// `width`-wide tuples by normalized key, merge equal-key runs, and
/// re-verify every pair with `sql_cmp` (group keys are supersets — see
/// `stats.rs`). Returns the joined tuples, one wider.
fn merge_join(
    acc: &[u32],
    width: usize,
    left_table: &Table,
    key: &JoinKey,
    filters: &[Expr],
    single: &[(&str, &Table)],
    examined: &mut u64,
) -> Result<Vec<u32>> {
    let right_rows = single[0].1.rows();
    *examined += right_rows.len() as u64;
    let mut rkeys: Vec<(KeyRef<'_>, u32)> = Vec::new();
    for (i, row) in right_rows.iter().enumerate() {
        if let Some(k) = KeyRef::of(&row[key.right_col]) {
            if step_filter(filters, single, i as u32)? {
                rkeys.push((k, i as u32));
            }
        }
    }
    rkeys.sort_unstable();

    let left_rows = left_table.rows();
    let left_val =
        |tuple: usize| &left_rows[acc[tuple * width + key.left_step] as usize][key.left_col];
    let mut lkeys: Vec<(KeyRef<'_>, u32)> = Vec::new();
    for i in 0..acc.len() / width {
        if let Some(k) = KeyRef::of(left_val(i)) {
            lkeys.push((k, i as u32)); // NULL keys join nothing
        }
    }
    lkeys.sort_unstable();

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lkeys.len() && j < rkeys.len() {
        match lkeys[i].0.cmp(&rkeys[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let k = lkeys[i].0;
                let (i0, j0) = (i, j);
                while i < lkeys.len() && lkeys[i].0 == k {
                    i += 1;
                }
                while j < rkeys.len() && rkeys[j].0 == k {
                    j += 1;
                }
                for &(_, tuple) in &lkeys[i0..i] {
                    let lval = left_val(tuple as usize);
                    for &(_, r) in &rkeys[j0..j] {
                        *examined += 1;
                        let rval = &right_rows[r as usize][key.right_col];
                        if lval.sql_cmp(rval) != Some(Ordering::Equal) {
                            continue; // group key was a superset
                        }
                        out.extend_from_slice(&acc[tuple as usize * width..][..width]);
                        out.push(r);
                    }
                }
            }
        }
    }
    Ok(out)
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
            Some(key) if key.algo == JoinAlgo::SortMerge => merge_join(
                &acc,
                k,
                exec_tables[key.left_step].1,
                key,
                &step.filter,
                &single,
                examined,
            )?,
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

    // Execution order -> FROM order: the FROM position of each step slot.
    let mut slot_of = vec![0usize; n];
    for (slot, s) in plan.steps.iter().enumerate() {
        slot_of[s.table] = slot;
    }
    if slot_of.iter().enumerate().any(|(pos, &slot)| pos != slot) {
        acc = acc.chunks_exact(n).flat_map(|tuple| slot_of.iter().map(|&s| tuple[s])).collect();
    }

    // Reordered/merged pipelines emit tuples out of cross-product order;
    // restore it by sorting on FROM-order row ids. Tuples are distinct
    // combinations, so the order is total — no tie to break.
    if plan.restore_order {
        let mut order: Vec<u32> = (0..(acc.len() / n) as u32).collect();
        order.sort_unstable_by_key(|&i| &acc[i as usize * n..][..n]);
        acc = gather(&acc, n, &order);
    }
    Ok(acc)
}

/// Render a plan (or the scan fallback) as EXPLAIN output lines, in
/// execution order. Costed plans annotate each step with estimated rows
/// and cumulative cost.
pub fn render_plan(
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
                        let algo = match key.algo {
                            JoinAlgo::Hash => "hash join",
                            JoinAlgo::SortMerge => "merge join",
                        };
                        line.push_str(&format!(
                            "{algo}({}.{} = {}.{})",
                            names[left_from],
                            tables[left_from].1.columns()[key.left_col].name,
                            names[step.table],
                            t.columns()[key.right_col].name,
                        ));
                    }
                    None if k == 0 => {}
                    None => line.push_str("nested loop, "),
                }
                if step.join.is_some() {
                    line.push_str(", ");
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
                if plan.costed {
                    line.push_str(&format!(
                        " [est {} rows, cost {}]",
                        step.est_rows.round() as u64,
                        step.est_cost.round() as u64
                    ));
                }
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
            if plan.costed {
                lines.push(format!(
                    "  estimated: {} rows, total cost {}",
                    plan.est_rows.round() as u64,
                    plan.est_cost.round() as u64
                ));
            }
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
