//! Statement execution against a [`Database`].
//!
//! A SELECT carries row ids, not rows, from access to projection. The
//! scan path (`scan_rows`) and the planner (`plan::execute_plan`) both
//! return one flat `Vec<u32>` of tuples: one row id per FROM table, in
//! FROM order, the table count as stride. WHERE, residuals and join keys
//! evaluate against borrowed rows (`RowEnv` binds one `&[Value]` per
//! table), and `eval` hands back column and literal operands borrowed,
//! so a comparison copies neither side; ORDER BY sorts tuple positions by
//! borrowed cells; GROUP BY keys groups by borrowed cells and folds the
//! aggregates over member positions; LIMIT truncates tuples.
//!
//! One projection loop feeds a `Sink`: a [`QueryResult`] clones the
//! projected cells of the tuples that survive, the string list of
//! `query_column_ref` renders the first of them straight into its
//! `String`, and neither builds the other. A single-table `count(*)`
//! with no WHERE, GROUP BY or ORDER BY is answered from the table's
//! length and examines no row; the scan path (`query_ref_scan`) still
//! counts tuples, so it stays the oracle for that answer too.

use crate::ast::*;
use crate::plan::{self, SelectPlan};
use crate::table::Table;
use crate::value::Value;
use crate::{Database, Result, SqlError};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::iter;

/// Rows returned by a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column labels (as projected).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Render an ASCII table in the style of the `mysql` client — used by
    /// the `reproduce` binary to print Tables II and III. Column widths
    /// are measured in characters, not bytes, so multi-byte UTF-8 values
    /// (hostnames with accents, localized comments) stay aligned —
    /// `format!`'s padding counts characters too.
    pub fn render_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for row in &self.rows {
            for (i, v) in row.iter().enumerate() {
                widths[i] = widths[i].max(v.render().chars().count());
            }
        }
        let sep = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep);
        out.push('\n');
        out.push('|');
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {:<w$} |", v.render()));
            }
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

/// Where a SELECT's projected rows go. The same projection loop fills a
/// [`QueryResult`] (labels and every cell) or the `Vec<String>` that
/// `query_column_ref` returns (the first cell of each row, rendered as
/// [`Value::render`] does).
pub(crate) trait Sink {
    /// An empty sink for `rows` rows.
    fn with_capacity(rows: usize) -> Self;
    /// Append an output column label; a sink that keeps none never
    /// builds it.
    fn label(&mut self, label: impl FnOnce() -> String);
    /// Append one output row, its cells in select-item order.
    fn row<'v>(&mut self, cells: impl Iterator<Item = Cow<'v, Value>>);
}

impl Sink for QueryResult {
    fn with_capacity(rows: usize) -> Self {
        QueryResult { columns: Vec::new(), rows: Vec::with_capacity(rows) }
    }

    fn label(&mut self, label: impl FnOnce() -> String) {
        self.columns.push(label());
    }

    fn row<'v>(&mut self, cells: impl Iterator<Item = Cow<'v, Value>>) {
        self.rows.push(cells.map(Cow::into_owned).collect());
    }
}

impl Sink for Vec<String> {
    fn with_capacity(rows: usize) -> Self {
        Vec::with_capacity(rows)
    }

    fn label(&mut self, _: impl FnOnce() -> String) {}

    fn row<'v>(&mut self, mut cells: impl Iterator<Item = Cow<'v, Value>>) {
        if let Some(first) = cells.next() {
            self.push(match first {
                Cow::Borrowed(v) => v.render(),
                Cow::Owned(v) => v.into_rendered(),
            });
        }
    }
}

/// Outcome of executing any statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A SELECT's rows.
    Rows(QueryResult),
    /// A write; `affected` counts inserted/updated/deleted rows.
    Written {
        /// Rows inserted, updated, or deleted.
        affected: usize,
    },
}

/// Execute a parsed statement.
pub(crate) fn execute(db: &mut Database, stmt: Statement) -> Result<ExecOutcome> {
    match stmt {
        Statement::CreateTable { name, columns } => {
            db.add_table(Table::new(name, columns))?;
            Ok(ExecOutcome::Written { affected: 0 })
        }
        Statement::DropTable { name } => {
            if db.table(&name).is_none() {
                return Err(SqlError::NoSuchTable(name));
            }
            // Database stores tables keyed by lowercase name; re-add by
            // removing through the public surface.
            db.remove_table(&name);
            Ok(ExecOutcome::Written { affected: 0 })
        }
        Statement::Insert { table, columns, rows } => {
            let t = db.table_mut(&table).ok_or(SqlError::NoSuchTable(table))?;
            let affected = rows.len();
            // Stage (validate + coerce) every row before appending any, so
            // a mid-statement type error leaves the table untouched. The
            // durable engine journals whole statements and replays them on
            // recovery; that is only sound if failed statements have no
            // effect.
            let staged = rows
                .into_iter()
                .map(|row| match &columns {
                    Some(names) => t.stage_named(names, row),
                    None => t.stage_row(row),
                })
                .collect::<Result<Vec<_>>>()?;
            for row in staged {
                t.append_staged(row);
            }
            Ok(ExecOutcome::Written { affected })
        }
        Statement::Update { table, sets, where_clause } => {
            update(db, &table, &sets, where_clause.as_ref())
        }
        Statement::Delete { table, where_clause } => delete(db, &table, where_clause.as_ref()),
        read @ (Statement::Select { .. } | Statement::Explain(_)) => {
            execute_readonly_with(db, &read, PlanChoice::Auto).map(ExecOutcome::Rows)
        }
    }
}

/// Execute a parsed statement against a shared (read-only) database
/// reference with an explicit planning mode, into the sink `S`. Only
/// `SELECT` is possible without mutation; write statements are
/// rejected. This is the entry
/// point for the concurrent Kickstart-generation read path, where many
/// worker threads query one database snapshot without locking each other
/// out. `Prepared` carries a plan built at prepare time
/// (`Database::query_ref`'s statement cache); `ForceScan` is the
/// differential baseline behind `Database::query_ref_scan`.
pub(crate) fn execute_readonly_with<S: Sink>(
    db: &Database,
    stmt: &Statement,
    mode: PlanChoice<'_>,
) -> Result<S> {
    match stmt {
        Statement::Select { items, from, where_clause, group_by, order_by, limit } => {
            select(db, items, from, where_clause.as_ref(), group_by, order_by, *limit, mode)
        }
        Statement::Explain(inner) => explain(db, inner),
        _ => Err(SqlError::Unsupported(
            "only SELECT may run on a read-only database reference".into(),
        )),
    }
}

/// How `select` obtains its filtered row set.
#[derive(Clone, Copy)]
pub(crate) enum PlanChoice<'a> {
    /// Plan now; fall back to the scan path when planning declines.
    Auto,
    /// Never plan — the naive scan baseline.
    ForceScan,
    /// A plan (or a recorded planning refusal) from the statement cache.
    Prepared(Option<&'a SelectPlan>),
}

/// `EXPLAIN <stmt>`: render the plan the SELECT would run with. Writes
/// cannot be explained — the planner only applies to SELECT.
fn explain<S: Sink>(db: &Database, stmt: &Statement) -> Result<S> {
    let Statement::Select { from, where_clause, order_by, limit, items, group_by } = stmt else {
        return Err(SqlError::Unsupported("EXPLAIN supports only SELECT".into()));
    };
    let tables = resolve_from(db, from)?;
    let mut lines = if counts_from_length(items, &tables, where_clause.as_ref(), group_by, order_by)
    {
        let name = tables[0].0;
        vec![format!("select from {name}"), format!("  {name}: count(*) from the table length")]
    } else {
        let planned = where_clause.as_ref().and_then(|w| plan::plan_select(&tables, w));
        plan::render_plan(&tables, planned.as_ref().map(|(p, _)| p), where_clause.as_ref())
    };
    if !order_by.is_empty() {
        let keys: Vec<String> = order_by
            .iter()
            .map(|k| format!("{}{}", k.column, if k.desc { " desc" } else { "" }))
            .collect();
        let has_aggregate = items.iter().any(SelectItem::is_aggregate);
        let top_k = match limit {
            Some(k) if !has_aggregate && group_by.is_empty() => format!(" (top-{k} selection)"),
            _ => " (sort)".to_string(),
        };
        lines.push(format!("  order by: {}{top_k}", keys.join(", ")));
    }
    if let Some(k) = limit {
        lines.push(format!("  limit: {k}"));
    }
    let mut sink = S::with_capacity(lines.len());
    sink.label(|| "plan".to_string());
    for line in lines {
        sink.row(iter::once(Cow::Owned(Value::Text(line))));
    }
    Ok(sink)
}

/// A single-table `count(*)` with no WHERE, GROUP BY or ORDER BY: the
/// answer is the table's length, and no row need be examined.
fn counts_from_length(
    items: &[SelectItem],
    tables: &[(&str, &Table)],
    where_clause: Option<&Expr>,
    group_by: &[ColumnRef],
    order_by: &[OrderKey],
) -> bool {
    matches!(items, [SelectItem::CountStar])
        && tables.len() == 1
        && where_clause.is_none()
        && group_by.is_empty()
        && order_by.is_empty()
}

/// Binding environment for expression evaluation over one tuple: for
/// each FROM table, its name and columns, and the row the tuple borrows
/// from it. Shared with the planner (`plan.rs`), which evaluates
/// pushed-down filters against single-table environments and residuals
/// against execution-order prefixes.
pub(crate) struct RowEnv<'a> {
    pub(crate) tables: &'a [(&'a str, &'a Table)],
    /// One row per table, in `tables` order.
    pub(crate) rows: &'a [&'a [Value]],
}

impl<'a> RowEnv<'a> {
    fn resolve(&self, col: &ColumnRef) -> Result<&'a Value> {
        let (t, c) = resolve_column(self.tables, col)?;
        Ok(&self.rows[t][c])
    }
}

/// Resolve a column reference to `(table position, column index)`: it
/// must name exactly one column of the tables in scope.
pub(crate) fn resolve_column(tables: &[(&str, &Table)], col: &ColumnRef) -> Result<(usize, usize)> {
    let mut found = None;
    for (pos, (name, table)) in tables.iter().enumerate() {
        if let Some(t) = &col.table {
            if !t.eq_ignore_ascii_case(name) {
                continue;
            }
        }
        if let Some(idx) = table.column_index(&col.column) {
            if found.is_some() {
                return Err(SqlError::AmbiguousColumn(col.to_string()));
            }
            found = Some((pos, idx));
        }
    }
    found.ok_or_else(|| SqlError::NoSuchColumn(col.to_string()))
}

/// Evaluate an expression over one tuple. Column and literal operands
/// come back borrowed, so a comparison copies neither side; every other
/// expression yields an owned truth value (`Int` 0 or 1).
pub(crate) fn eval<'v>(expr: &'v Expr, env: &RowEnv<'v>) -> Result<Cow<'v, Value>> {
    let truth = |t: bool| Cow::Owned(Value::Int(t as i64));
    Ok(match expr {
        Expr::Literal(v) => Cow::Borrowed(v),
        Expr::Column(c) => Cow::Borrowed(env.resolve(c)?),
        Expr::Not(inner) => truth(!eval(inner, env)?.is_truthy()),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, env)?;
            match op {
                BinOp::And => truth(l.is_truthy() && eval(rhs, env)?.is_truthy()),
                BinOp::Or => truth(l.is_truthy() || eval(rhs, env)?.is_truthy()),
                cmp => {
                    let r = eval(rhs, env)?;
                    truth(match (cmp, l.sql_cmp(&r)) {
                        (_, None) => false, // NULL never compares
                        (BinOp::Eq, Some(o)) => o == Ordering::Equal,
                        (BinOp::NotEq, Some(o)) => o != Ordering::Equal,
                        (BinOp::Lt, Some(o)) => o == Ordering::Less,
                        (BinOp::LtEq, Some(o)) => o != Ordering::Greater,
                        (BinOp::Gt, Some(o)) => o == Ordering::Greater,
                        (BinOp::GtEq, Some(o)) => o != Ordering::Less,
                        (BinOp::And | BinOp::Or, _) => unreachable!(),
                    })
                }
            }
        }
        Expr::Like { expr, pattern, negated } => truth(eval(expr, env)?.like(pattern) != *negated),
        Expr::IsNull { expr, negated } => truth(eval(expr, env)?.is_null() != *negated),
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, env)?;
            if v.is_null() {
                return Ok(truth(false));
            }
            truth(list.iter().any(|item| v.sql_cmp(item) == Some(Ordering::Equal)) != *negated)
        }
    })
}

/// Resolve FROM table names against the database, in FROM order.
fn resolve_from<'d>(db: &'d Database, from: &[String]) -> Result<Vec<(&'d str, &'d Table)>> {
    from.iter()
        .map(|name| {
            db.table(name).map(|t| (t.name(), t)).ok_or_else(|| SqlError::NoSuchTable(name.clone()))
        })
        .collect()
}

/// The cell at `(table position, column index)` of one tuple.
fn cell<'d>(tables: &[(&str, &'d Table)], tuple: &[u32], (t, c): (usize, usize)) -> &'d Value {
    &tables[t].1.rows()[tuple[t] as usize][c]
}

/// The `width`-wide tuples of `ids` at the positions `order` lists, in
/// that order.
pub(crate) fn gather(ids: &[u32], width: usize, order: &[u32]) -> Vec<u32> {
    order.iter().flat_map(|&i| &ids[i as usize * width..][..width]).copied().collect()
}

/// ORDER BY's comparison: NULL before every value, values by `sql_cmp`.
/// A column holds one type (`Table::coerce`), so this is a total order —
/// the sort needs one, and `sql_cmp` alone calls NULL equal to everything.
fn sort_cmp(a: &Value, b: &Value) -> Ordering {
    a.sql_cmp(b).unwrap_or_else(|| b.is_null().cmp(&a.is_null()))
}

/// The naive path: enumerate the cross product of all FROM tables with an
/// odometer and evaluate the whole WHERE per tuple. This is the semantic
/// reference the planner must match byte-for-byte, and the fallback
/// whenever planning declines. Returns the surviving tuples, one row id
/// per FROM table in FROM order.
fn scan_rows(
    tables: &[(&str, &Table)],
    where_clause: Option<&Expr>,
    examined: &mut u64,
) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    if tables.iter().any(|(_, t)| t.is_empty()) {
        return Ok(out);
    }
    let mut ids = vec![0u32; tables.len()];
    let mut rows: Vec<&[Value]> = tables.iter().map(|(_, t)| t.rows()[0].as_slice()).collect();
    loop {
        *examined += 1;
        if where_hits(where_clause, &RowEnv { tables, rows: &rows })? {
            out.extend_from_slice(&ids);
        }
        // Odometer increment.
        let mut pos = tables.len();
        loop {
            if pos == 0 {
                return Ok(out);
            }
            pos -= 1;
            let t = tables[pos].1;
            ids[pos] += 1;
            if ids[pos] as usize == t.len() {
                ids[pos] = 0;
            }
            rows[pos] = &t.rows()[ids[pos] as usize];
            if ids[pos] != 0 {
                break;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn select<S: Sink>(
    db: &Database,
    items: &[SelectItem],
    from: &[String],
    where_clause: Option<&Expr>,
    group_by: &[ColumnRef],
    order_by: &[OrderKey],
    limit: Option<usize>,
    mode: PlanChoice<'_>,
) -> Result<S> {
    let tables = resolve_from(db, from)?;
    let width = tables.len();

    if !matches!(mode, PlanChoice::ForceScan)
        && counts_from_length(items, &tables, where_clause, group_by, order_by)
    {
        let rows = usize::from(limit != Some(0));
        let mut sink = S::with_capacity(rows);
        sink.label(|| "count(*)".to_string());
        if rows == 1 {
            sink.row(iter::once(Cow::Owned(Value::Int(tables[0].1.len() as i64))));
        }
        db.stats().record_select(0, rows as u64, false);
        return Ok(sink);
    }

    // Produce the surviving tuples — through the planner when a WHERE
    // clause planned successfully, through the scan path otherwise.
    // `examined` and `used_index` feed the database's QueryStats.
    let mut examined = 0u64;
    let mut used_index = false;
    let mut est_rows: Option<f64> = None;
    let mut tuples: Vec<u32> = match (where_clause, mode) {
        (Some(expr), PlanChoice::Auto) => match plan::plan_select(&tables, expr) {
            Some((p, info)) => {
                db.stats().record_planning(&info, p.reordered);
                used_index = p.uses_index();
                est_rows = Some(p.est_rows);
                plan::execute_plan(&p, &tables, &mut examined)?
            }
            None => scan_rows(&tables, where_clause, &mut examined)?,
        },
        (Some(_), PlanChoice::Prepared(Some(p))) => {
            used_index = p.uses_index();
            est_rows = Some(p.est_rows);
            plan::execute_plan(p, &tables, &mut examined)?
        }
        _ => scan_rows(&tables, where_clause, &mut examined)?,
    };
    let count = tuples.len() / width;
    // Feed the estimated-vs-actual ratio histogram on the pre-projection
    // tuple count — the quantity the planner actually estimated.
    if let Some(est) = est_rows {
        db.stats().record_estimate(est, count as u64);
    }

    let has_aggregate = items.iter().any(SelectItem::is_aggregate);

    // ORDER BY before projection so sort keys need not be projected. The
    // sort permutes tuple positions by borrowed cells: stable, ties by
    // position.
    if !order_by.is_empty() {
        let keys: Vec<((usize, usize), bool)> = order_by
            .iter()
            .map(|key| resolve_column(&tables, &key.column).map(|col| (col, key.desc)))
            .collect::<Result<_>>()?;
        let cmp = |a: &u32, b: &u32| -> Ordering {
            let (a, b) = (&tuples[*a as usize * width..], &tuples[*b as usize * width..]);
            for &(col, desc) in &keys {
                let ord = sort_cmp(cell(&tables, a, col), cell(&tables, b, col));
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        };
        let mut order: Vec<u32> = (0..count as u32).collect();
        match limit {
            // Top-k: when a LIMIT smaller than the row count follows the
            // sort (and tuples flow straight to projection, not into
            // grouping), select the k first under the order made total by
            // position — exactly "stable sort, then truncate(k)" — and sort
            // only those.
            Some(k) if !has_aggregate && group_by.is_empty() && k < count => {
                let total = |a: &u32, b: &u32| cmp(a, b).then(a.cmp(b));
                if k > 0 {
                    order.select_nth_unstable_by(k - 1, total);
                }
                order.truncate(k);
                order.sort_unstable_by(total);
            }
            _ => order.sort_by(cmp),
        }
        tuples = gather(&tuples, width, &order);
    }

    // Grouped / aggregate path.
    if has_aggregate || !group_by.is_empty() {
        let (sink, rows) = grouped_select(items, group_by, &tables, &tuples, limit)?;
        db.stats().record_select(examined, rows as u64, used_index);
        return Ok(sink);
    }

    if let Some(n) = limit {
        tuples.truncate(n.saturating_mul(width));
    }
    let rows = tuples.len() / width;

    // Every item resolves before the first row is projected, whatever
    // the sink keeps, so both sinks report the same errors.
    let mut sink = S::with_capacity(rows);
    let mut cols: Vec<(usize, usize)> = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for (t, (name, table)) in tables.iter().enumerate() {
                    for (c, column) in table.columns().iter().enumerate() {
                        sink.label(|| {
                            if width > 1 {
                                format!("{name}.{}", column.name)
                            } else {
                                column.name.clone()
                            }
                        });
                        cols.push((t, c));
                    }
                }
            }
            SelectItem::Column(col) => {
                sink.label(|| col.to_string());
                cols.push(resolve_column(&tables, col)?);
            }
            _ => unreachable!("aggregates handled above"),
        }
    }

    // The only copies of the read: the projected cells of surviving
    // tuples, as the sink keeps them.
    for tuple in tuples.chunks_exact(width) {
        sink.row(cols.iter().map(|&col| Cow::Borrowed(cell(&tables, tuple, col))));
    }
    db.stats().record_select(examined, rows as u64, used_index);
    Ok(sink)
}

/// Evaluate the grouped/aggregate SELECT path. With an empty `group_by`
/// the whole (already sorted) tuple set forms a single group — the plain
/// `SELECT COUNT(*) ...` case. Groups are keyed by borrowed cells in
/// first-seen order, which is the WHERE/ORDER BY-processed tuple order;
/// each keeps its member positions, and aggregates fold over those.
/// Returns the filled sink and its row count.
fn grouped_select<S: Sink>(
    items: &[SelectItem],
    group_by: &[ColumnRef],
    tables: &[(&str, &Table)],
    tuples: &[u32],
    limit: Option<usize>,
) -> Result<(S, usize)> {
    let width = tables.len();
    let keys: Vec<Result<(usize, usize)>> =
        group_by.iter().map(|g| resolve_column(tables, g)).collect();
    // Validate projection: a plain column must be a GROUP BY column. It is
    // one when it resolves to the same column as a key, however either is
    // spelled, or when it is spelled like a key (then, if it does not
    // resolve, its resolution error is what the statement returns).
    for item in items {
        match item {
            SelectItem::Column(col) => {
                let spelled = group_by
                    .iter()
                    .any(|g| g.column == col.column && (g.table.is_none() || g.table == col.table));
                let same = resolve_column(tables, col)
                    .is_ok_and(|c| keys.iter().any(|k| k.as_ref().ok() == Some(&c)));
                if !spelled && !same {
                    return Err(SqlError::Unsupported(format!(
                        "column {col} must appear in GROUP BY or an aggregate"
                    )));
                }
            }
            SelectItem::Wildcard => {
                return Err(SqlError::Unsupported(
                    "SELECT * cannot be combined with aggregates/GROUP BY".into(),
                ))
            }
            _ => {}
        }
    }
    let keys: Vec<(usize, usize)> = keys.into_iter().collect::<Result<_>>()?;

    // Partition tuple positions into groups, preserving first-seen order.
    // With no GROUP BY, aggregates run over everything as one group.
    let mut groups: Vec<Vec<u32>> = Vec::new();
    if group_by.is_empty() {
        groups.push((0..(tuples.len() / width) as u32).collect());
    } else {
        let mut seen: HashMap<Vec<&Value>, usize> = HashMap::new();
        let mut key: Vec<&Value> = Vec::with_capacity(keys.len());
        for (pos, tuple) in tuples.chunks_exact(width).enumerate() {
            key.clear();
            key.extend(keys.iter().map(|&col| cell(tables, tuple, col)));
            let g = match seen.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    seen.insert(key.clone(), groups.len());
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
            groups[g].push(pos as u32);
        }
    }
    // Item columns resolve when the first group is emitted: a statement
    // with no group reports no resolution error, one with LIMIT 0 does.
    let item_cols: Vec<Option<(usize, usize)>> = if groups.is_empty() {
        Vec::new()
    } else {
        items
            .iter()
            .map(|item| match item {
                SelectItem::Min(c)
                | SelectItem::Max(c)
                | SelectItem::Sum(c)
                | SelectItem::Column(c) => resolve_column(tables, c).map(Some),
                _ => Ok(None),
            })
            .collect::<Result<_>>()?
    };
    if let Some(n) = limit {
        groups.truncate(n);
    }

    let mut sink = S::with_capacity(groups.len());
    for item in items {
        sink.label(|| match item {
            SelectItem::CountStar => "count(*)".to_string(),
            SelectItem::Min(col) => format!("min({col})"),
            SelectItem::Max(col) => format!("max({col})"),
            SelectItem::Sum(col) => format!("sum({col})"),
            SelectItem::Column(col) => col.to_string(),
            SelectItem::Wildcard => unreachable!("rejected above"),
        });
    }
    // Cells fold lazily: a sink that keeps the first item computes only it.
    for members in &groups {
        let cells = move |col: Option<(usize, usize)>| {
            let col = col.expect("column items resolved");
            members.iter().map(move |&m| cell(tables, &tuples[m as usize * width..], col))
        };
        sink.row(items.iter().zip(&item_cols).map(|(item, &col)| match item {
            SelectItem::CountStar => Cow::Owned(Value::Int(members.len() as i64)),
            SelectItem::Min(_) => extreme(cells(col), Ordering::Less),
            SelectItem::Max(_) => extreme(cells(col), Ordering::Greater),
            SelectItem::Sum(_) => {
                let mut ints = cells(col).filter_map(Value::as_int).peekable();
                Cow::Owned(match ints.peek() {
                    Some(_) => Value::Int(ints.sum()),
                    None => Value::Null,
                })
            }
            SelectItem::Column(_) => or_null(cells(col).next()),
            SelectItem::Wildcard => unreachable!("rejected above"),
        }));
    }
    Ok((sink, groups.len()))
}

/// A borrowed cell, or NULL where there is none.
fn or_null(cell: Option<&Value>) -> Cow<'_, Value> {
    cell.map_or(Cow::Owned(Value::Null), Cow::Borrowed)
}

/// MIN (`wins` = `Less`) or MAX (`Greater`) over a group's cells,
/// skipping NULLs (SQL semantics); the first of equal extremes is kept.
fn extreme<'d>(cells: impl Iterator<Item = &'d Value>, wins: Ordering) -> Cow<'d, Value> {
    let mut best: Option<&Value> = None;
    for v in cells.filter(|v| !v.is_null()) {
        if best.is_none_or(|b| v.sql_cmp(b) == Some(wins)) {
            best = Some(v);
        }
    }
    or_null(best)
}

/// Do the rows `env` binds satisfy the WHERE clause?
fn where_hits(where_clause: Option<&Expr>, env: &RowEnv<'_>) -> Result<bool> {
    Ok(match where_clause {
        Some(expr) => eval(expr, env)?.is_truthy(),
        None => true,
    })
}

// UPDATE and DELETE evaluate against the table where it stands and
// collect only what changes; the table is first touched after the last
// row has evaluated, so a statement that errors midway changes nothing.

fn update(
    db: &mut Database,
    table: &str,
    sets: &[(String, Expr)],
    where_clause: Option<&Expr>,
) -> Result<ExecOutcome> {
    let t = db.table(table).ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
    let set_indices: Vec<usize> = sets
        .iter()
        .map(|(col, _)| {
            t.column_index(col).ok_or_else(|| SqlError::NoSuchColumn(format!("{}.{col}", t.name())))
        })
        .collect::<Result<_>>()?;
    let tables = [(t.name(), t)];
    let mut updated_rows = Vec::new();
    for (pos, row) in t.rows().iter().enumerate() {
        // SET expressions see the row as it was, whatever their order.
        let env = RowEnv { tables: &tables, rows: &[row.as_slice()] };
        if !where_hits(where_clause, &env)? {
            continue;
        }
        let mut updated = row.clone();
        for ((_, expr), &idx) in sets.iter().zip(&set_indices) {
            updated[idx] = Table::coerce(&t.columns()[idx], eval(expr, &env)?.into_owned())?;
        }
        updated_rows.push((pos, updated));
    }
    let affected = updated_rows.len();
    let name = t.name().to_string();
    db.replace_rows(&name, updated_rows);
    Ok(ExecOutcome::Written { affected })
}

fn delete(db: &mut Database, table: &str, where_clause: Option<&Expr>) -> Result<ExecOutcome> {
    let t = db.table(table).ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
    let tables = [(t.name(), t)];
    let mut doomed = Vec::new();
    for (pos, row) in t.rows().iter().enumerate() {
        if where_hits(where_clause, &RowEnv { tables: &tables, rows: &[row.as_slice()] })? {
            doomed.push(pos);
        }
    }
    let name = t.name().to_string();
    db.remove_rows(&name, &doomed);
    Ok(ExecOutcome::Written { affected: doomed.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.execute("create table nodes (id int, name text, membership int, rack int, rank int, ip text, comment text)").unwrap();
        db.execute("create table memberships (id int, name text, appliance int, compute text)")
            .unwrap();
        // Table II's rows (abridged).
        for stmt in [
            "insert into nodes values (1, 'frontend-0', 1, 0, 0, '10.1.1.1', 'Gateway machine')",
            "insert into nodes values (2, 'network-0-0', 4, 0, 0, '10.255.255.253', 'Switch for Cabinet 0')",
            "insert into nodes values (4, 'compute-0-0', 2, 0, 0, '10.255.255.245', 'Compute node')",
            "insert into nodes values (5, 'compute-0-1', 2, 0, 1, '10.255.255.244', 'Compute node')",
            "insert into nodes values (6, 'compute-0-2', 2, 0, 2, '10.255.255.243', NULL)",
            "insert into nodes values (8, 'web-1-0', 8, 1, 0, '10.255.255.246', 'Web Server in Cabinet 1')",
        ] {
            db.execute(stmt).unwrap();
        }
        for stmt in [
            "insert into memberships values (1, 'Frontend', 1, 'no')",
            "insert into memberships values (2, 'Compute', 2, 'yes')",
            "insert into memberships values (4, 'Ethernet Switches', 4, 'no')",
            "insert into memberships values (8, 'Web Server', 3, 'no')",
        ] {
            db.execute(stmt).unwrap();
        }
        db
    }

    #[test]
    fn where_filters_rows() {
        let db = sample_db();
        let names = db.query_column_ref("select name from nodes where rack=1").unwrap();
        assert_eq!(names, vec!["web-1-0"]);
    }

    #[test]
    fn join_with_membership() {
        let db = sample_db();
        let names = db
            .query_column_ref(
                "select nodes.name from nodes,memberships where \
                 nodes.membership = memberships.id and memberships.compute = 'yes'",
            )
            .unwrap();
        assert_eq!(names, vec!["compute-0-0", "compute-0-1", "compute-0-2"]);
    }

    #[test]
    fn wildcard_projection_and_labels() {
        let db = sample_db();
        let result = db.query_ref("select * from memberships where id = 1").unwrap();
        assert_eq!(result.columns, vec!["id", "name", "appliance", "compute"]);
        assert_eq!(result.rows.len(), 1);
        let joined = db
            .query_ref("select * from nodes, memberships where nodes.membership = memberships.id")
            .unwrap();
        assert!(joined.columns.contains(&"nodes.name".to_string()));
        assert!(joined.columns.contains(&"memberships.name".to_string()));
    }

    #[test]
    fn ambiguous_column_is_an_error() {
        let db = sample_db();
        let err = db
            .query_ref(
                "select name from nodes, memberships where nodes.membership = memberships.id",
            )
            .unwrap_err();
        assert!(matches!(err, SqlError::AmbiguousColumn(_)));
        let err =
            db.query_ref("select nodes.name from nodes, memberships where name = 'x'").unwrap_err();
        assert!(matches!(err, SqlError::AmbiguousColumn(_)));
    }

    #[test]
    fn order_by_multi_key() {
        let db = sample_db();
        let result =
            db.query_ref("select name from nodes where membership = 2 order by rank desc").unwrap();
        let names: Vec<_> = result.rows.iter().map(|r| r[0].render()).collect();
        assert_eq!(names, vec!["compute-0-2", "compute-0-1", "compute-0-0"]);
    }

    #[test]
    fn limit_truncates() {
        let db = sample_db();
        let result = db.query_ref("select name from nodes order by id limit 2").unwrap();
        assert_eq!(result.rows.len(), 2);
    }

    #[test]
    fn aggregates_count_min_max() {
        let db = sample_db();
        let result = db
            .query_ref("select count(*), min(rank), max(rank) from nodes where membership = 2")
            .unwrap();
        assert_eq!(result.rows[0], vec![Value::Int(3), Value::Int(0), Value::Int(2)]);
    }

    #[test]
    fn aggregates_on_empty_set() {
        let db = sample_db();
        let result = db.query_ref("select count(*), max(rank) from nodes where rack = 99").unwrap();
        assert_eq!(result.rows[0], vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn group_by_counts_per_rack() {
        let db = sample_db();
        let result =
            db.query_ref("select rack, count(*) from nodes group by rack order by rack").unwrap();
        assert_eq!(result.columns, vec!["rack", "count(*)"]);
        assert_eq!(
            result.rows,
            vec![vec![Value::Int(0), Value::Int(5)], vec![Value::Int(1), Value::Int(1)]]
        );
    }

    #[test]
    fn group_by_with_min_max_sum() {
        let db = sample_db();
        let result = db
            .query_ref(
                "select membership, count(*), min(rank), max(rank), sum(rank)                  from nodes group by membership order by membership",
            )
            .unwrap();
        // membership 2 (compute) has ranks 0,1,2.
        let compute = result.rows.iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(compute[1], Value::Int(3));
        assert_eq!(compute[2], Value::Int(0));
        assert_eq!(compute[3], Value::Int(2));
        assert_eq!(compute[4], Value::Int(3));
    }

    #[test]
    fn group_by_join_counts_by_membership_name() {
        let db = sample_db();
        let result = db
            .query_ref(
                "select memberships.name, count(*) from nodes, memberships                  where nodes.membership = memberships.id                  group by memberships.name order by memberships.name",
            )
            .unwrap();
        let as_pairs: Vec<(String, i64)> =
            result.rows.iter().map(|r| (r[0].render(), r[1].as_int().unwrap())).collect();
        assert!(as_pairs.contains(&("Compute".to_string(), 3)));
        assert!(as_pairs.contains(&("Frontend".to_string(), 1)));
    }

    #[test]
    fn ungrouped_column_with_aggregate_is_rejected() {
        let db = sample_db();
        let err = db.query_ref("select name, count(*) from nodes").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
        let err = db.query_ref("select name, count(*) from nodes group by rack").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
        let err = db.query_ref("select *, count(*) from nodes").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
    }

    #[test]
    fn group_by_membership_is_by_column_not_spelling() {
        let db = sample_db();
        let reference = db.query_ref("select rack, count(*) from nodes group by rack").unwrap();
        // The parent rejected the first two with "column rack must appear
        // in GROUP BY" while accepting the last two.
        for sql in [
            "select rack, count(*) from nodes group by nodes.rack",
            "select rack, count(*) from nodes group by NODES.RACK",
            "select nodes.rack, count(*) from nodes group by rack",
            "select RACK, count(*) from nodes group by rack",
        ] {
            let r = db.query_ref(sql).unwrap();
            assert_eq!(r.rows, reference.rows, "{sql}");
        }
        let joined = db
            .query_ref(
                "select name, count(*) from nodes, memberships \
                 where nodes.membership = memberships.id group by memberships.name",
            )
            .unwrap_err();
        assert!(matches!(joined, SqlError::Unsupported(_)), "bare `name` is ambiguous: {joined}");
        let r = db
            .query_ref(
                "select membership, count(*) from nodes, memberships \
                 where nodes.membership = memberships.id group by nodes.membership",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 4);
        // A different column is still not grouped, however it is spelled.
        let err = db.query_ref("select nodes.rank, count(*) from nodes group by rack").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
    }

    #[test]
    fn order_by_null_keys_sort_first_and_never_panic() {
        let mut db = Database::new();
        db.execute("create table t (id int, k int, s text)").unwrap();
        // The parent compared NULL as equal to everything, which is no
        // order at all: this table made its sort panic.
        for i in 0..40 {
            let (k, s) = match i % 3 {
                0 => ("NULL".to_string(), "NULL".to_string()),
                _ => (((i * 7) % 11).to_string(), format!("'s{}'", (i * 5) % 7)),
            };
            db.execute(&format!("insert into t values ({i}, {k}, {s})")).unwrap();
        }
        let ks = |r: &QueryResult| -> Vec<Option<i64>> {
            r.rows.iter().map(|row| row[1].as_int()).collect()
        };
        let asc = db.query_ref("select id, k from t order by k").unwrap();
        let keys = ks(&asc);
        assert_eq!(keys.iter().take_while(|k| k.is_none()).count(), 14, "NULLs first: {keys:?}");
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "ascending: {keys:?}");
        // Stable: equal keys keep table order.
        assert!(asc
            .rows
            .windows(2)
            .all(|w| w[0][1] != w[1][1] || w[0][0].as_int() < w[1][0].as_int()));
        let desc = db.query_ref("select id, k from t order by k desc").unwrap();
        assert_eq!(ks(&desc).iter().rev().take_while(|k| k.is_none()).count(), 14);
        for sql in
            ["select id, k, s from t order by s, k desc", "select id, k from t order by k desc, id"]
        {
            let full = db.query_ref(sql).unwrap();
            for limit in [0, 1, 5, 14, 15, 39, 40, 41] {
                let top = db.query_ref(&format!("{sql} limit {limit}")).unwrap();
                assert_eq!(top.rows, full.rows[..limit.min(40)], "top-{limit} of {sql}");
                assert_eq!(top, db.query_ref_scan(&format!("{sql} limit {limit}")).unwrap());
            }
        }
    }

    #[test]
    fn query_column_renders_like_value_render() {
        let mut db = Database::new();
        db.execute("create table t (s text, n int)").unwrap();
        db.execute("insert into t values ('a', 1), (NULL, NULL), ('', -3)").unwrap();
        let rendered = |col: &str| -> Vec<String> {
            let r = db.query_ref(&format!("select {col} from t")).unwrap();
            r.rows.iter().map(|row| row[0].render()).collect()
        };
        let (s, n) = (rendered("s"), rendered("n"));
        assert_eq!(db.query_column_ref("select s from t").unwrap(), s);
        assert_eq!(db.query_column_ref("select n from t").unwrap(), n);
        assert_eq!(n, ["1", "NULL", "-3"]);
    }

    #[test]
    fn group_by_empty_table_yields_no_groups() {
        let mut db = sample_db();
        db.execute("delete from nodes").unwrap();
        let result = db.query_ref("select rack, count(*) from nodes group by rack").unwrap();
        assert!(result.rows.is_empty());
        // ...but a global aggregate still yields one row.
        let result = db.query_ref("select count(*) from nodes").unwrap();
        assert_eq!(result.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn sum_skips_nulls_and_text() {
        let mut db = Database::new();
        db.execute("create table t (v int)").unwrap();
        db.execute("insert into t values (1), (NULL), (2)").unwrap();
        let result = db.query_ref("select sum(v), count(*) from t").unwrap();
        assert_eq!(result.rows[0], vec![Value::Int(3), Value::Int(3)]);
    }

    #[test]
    fn like_and_in_predicates() {
        let db = sample_db();
        let names =
            db.query_column_ref("select name from nodes where name like 'compute-%'").unwrap();
        assert_eq!(names.len(), 3);
        let names =
            db.query_column_ref("select name from nodes where id in (1, 8) order by id").unwrap();
        assert_eq!(names, vec!["frontend-0", "web-1-0"]);
        let names = db
            .query_column_ref(
                "select name from nodes where name not like 'compute-%' and rack = 0 order by id",
            )
            .unwrap();
        assert_eq!(names, vec!["frontend-0", "network-0-0"]);
    }

    #[test]
    fn null_semantics() {
        let db = sample_db();
        // comment = NULL row never matches equality...
        let n =
            db.query_column_ref("select name from nodes where comment = 'Compute node'").unwrap();
        assert_eq!(n.len(), 2);
        // ...but IS NULL finds it.
        let n = db.query_column_ref("select name from nodes where comment is null").unwrap();
        assert_eq!(n, vec!["compute-0-2"]);
        let n =
            db.query_column_ref("select count(*) from nodes where comment is not null").unwrap();
        assert_eq!(n, vec!["5"]);
    }

    #[test]
    fn update_with_where() {
        let mut db = sample_db();
        let outcome = db.execute("update nodes set rack = 7 where membership = 2").unwrap();
        assert_eq!(outcome, ExecOutcome::Written { affected: 3 });
        let n = db.query_column_ref("select count(*) from nodes where rack = 7").unwrap();
        assert_eq!(n, vec!["3"]);
    }

    #[test]
    fn update_set_from_column() {
        let mut db = sample_db();
        db.execute("update nodes set rank = id where name = 'web-1-0'").unwrap();
        let v = db.query_column_ref("select rank from nodes where name = 'web-1-0'").unwrap();
        assert_eq!(v, vec!["8"]);
    }

    #[test]
    fn delete_with_and_without_where() {
        let mut db = sample_db();
        let outcome = db.execute("delete from nodes where rack = 1").unwrap();
        assert_eq!(outcome, ExecOutcome::Written { affected: 1 });
        let outcome = db.execute("delete from nodes").unwrap();
        assert_eq!(outcome, ExecOutcome::Written { affected: 5 });
        assert_eq!(db.table("nodes").unwrap().len(), 0);
    }

    #[test]
    fn drop_table() {
        let mut db = sample_db();
        db.execute("drop table memberships").unwrap();
        assert!(db.table("memberships").is_none());
        assert!(matches!(db.execute("drop table memberships"), Err(SqlError::NoSuchTable(_))));
    }

    #[test]
    fn empty_join_short_circuits() {
        let mut db = sample_db();
        db.execute("create table empty (x int)").unwrap();
        let result = db.query_ref("select * from nodes, empty").unwrap();
        assert!(result.rows.is_empty());
    }

    #[test]
    fn render_ascii_looks_like_mysql() {
        let db = sample_db();
        let result = db.query_ref("select id, name from memberships order by id limit 2").unwrap();
        let text = result.render_ascii();
        assert!(text.starts_with("+"));
        assert!(text.contains("| id | name"));
        assert!(text.contains("| 1  | Frontend"));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = sample_db();
        assert!(matches!(db.query_ref("select x from ghost"), Err(SqlError::NoSuchTable(_))));
        assert!(matches!(db.query_ref("select ghost from nodes"), Err(SqlError::NoSuchColumn(_))));
    }

    #[test]
    fn planned_queries_match_scan_exactly() {
        let db = sample_db();
        for sql in [
            "select * from nodes where ip = '10.1.1.1'",
            "select name from nodes where membership = 2 and rank > 0",
            "select nodes.name from nodes, memberships where \
             nodes.membership = memberships.id and memberships.compute = 'yes'",
            "select * from nodes, memberships where nodes.membership = memberships.id",
            "select nodes.name, memberships.name from nodes, memberships where \
             nodes.membership = memberships.id and nodes.rack = 0 order by nodes.id",
            "select name from nodes where id = 4 or id = 5",
            "select name from nodes where comment = 'Compute node' and rank < 2",
            "select count(*) from nodes where membership = 2",
            "select rack, count(*) from nodes where membership = 2 group by rack",
            "select name from nodes where id in (1, 8) and rack = 0",
            "select name from nodes where name like 'compute-%' and membership = 2",
            "select name from nodes where ip = '99.99.99.99'",
            "select name from nodes where comment is null",
            "select nodes.name from nodes, memberships where \
             memberships.id = nodes.membership and nodes.rank = memberships.appliance",
        ] {
            assert_eq!(
                db.query_ref(sql).unwrap(),
                db.query_ref_scan(sql).unwrap(),
                "planned result diverged for {sql}"
            );
        }
    }

    #[test]
    fn planned_error_behavior_matches_scan() {
        let db = sample_db();
        for sql in [
            "select name from nodes, memberships where name = 'x'", // ambiguous
            "select name from nodes where ghost = 1",               // no such column
            "select name from ghost where x = 1",                   // no such table
        ] {
            assert_eq!(
                db.query_ref(sql).unwrap_err(),
                db.query_ref_scan(sql).unwrap_err(),
                "planned error diverged for {sql}"
            );
        }
    }

    #[test]
    fn point_lookup_touches_only_candidates_via_index() {
        let db = sample_db();
        let r = db.query_ref("select name from nodes where ip = '10.1.1.1'").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Text("frontend-0".into())]]);
        // The probe built an index on nodes.ip.
        assert!(db.table("nodes").unwrap().indexed_columns() >= 1);
    }

    #[test]
    fn explain_point_query_shows_index() {
        let db = sample_db();
        let r = db.query_ref("explain select name from nodes where ip = '10.1.1.1'").unwrap();
        assert_eq!(r.columns, vec!["plan"]);
        let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert!(text.iter().any(|l| l.contains("index(ip = '10.1.1.1')")), "plan was {text:?}");
    }

    #[test]
    fn explain_join_shows_hash_join_and_pushdown() {
        let db = sample_db();
        let r = db
            .query_ref(
                "explain select nodes.name from nodes, memberships where \
                 nodes.membership = memberships.id and memberships.compute = 'yes' \
                 order by nodes.name limit 2",
            )
            .unwrap();
        let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        // The cost-based planner starts from the filtered memberships
        // table and hash-joins nodes into it (reordered from FROM order).
        assert!(
            text.iter().any(|l| l.contains("hash join(memberships.id = nodes.membership)")),
            "plan was {text:?}"
        );
        assert!(text.iter().any(|l| l.contains("filter((memberships.compute = 'yes'))")));
        assert!(text.iter().any(|l| l.contains("join order: memberships, nodes")));
        assert!(text.iter().any(|l| l.contains("[est ")), "steps carry cost annotations: {text:?}");
        assert!(text.iter().any(|l| l.contains("top-2 selection")));
        assert!(text.iter().any(|l| l.contains("limit: 2")));
    }

    #[test]
    fn explain_fallback_mentions_cross_product() {
        let db = sample_db();
        // `name` is ambiguous across the two tables: planning declines.
        let r = db
            .query_ref("explain select nodes.name from nodes, memberships where name = 'x'")
            .unwrap();
        let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert!(text.iter().any(|l| l.contains("cross product")), "plan was {text:?}");
    }

    #[test]
    fn count_star_comes_from_the_table_length() {
        let db = sample_db();
        let plan =
            |sql: &str| -> Vec<String> { db.query_column_ref(&format!("explain {sql}")).unwrap() };
        assert_eq!(
            plan("select count(*) from nodes limit 3"),
            ["select from nodes", "  nodes: count(*) from the table length", "  limit: 3"]
        );
        for sql in [
            "select count(*) from nodes where rack = 0",
            "select count(*) from nodes, memberships",
            "select count(*), max(rank) from nodes",
        ] {
            assert!(!plan(sql).iter().any(|l| l.contains("table length")), "{sql}");
        }
        for (sql, want) in [
            ("select count(*) from nodes", vec![vec![Value::Int(6)]]),
            ("select count(*) from nodes limit 0", vec![]),
        ] {
            let examined = db.stats().rows_examined();
            assert_eq!(db.query_ref(sql).unwrap().rows, want, "{sql}");
            assert_eq!(db.stats().rows_examined(), examined, "{sql} examines no row");
            assert_eq!(db.query_ref(sql), db.query_ref_scan(sql), "{sql}");
        }
    }

    #[test]
    fn explain_rejects_writes() {
        let mut db = sample_db();
        let err = db.execute("explain delete from nodes").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
    }

    #[test]
    fn explain_runs_readonly() {
        let db = sample_db();
        let r = db.query_ref("explain select * from nodes where id = 1").unwrap();
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn top_k_matches_full_sort_including_ties() {
        let mut db = Database::new();
        db.execute("create table t (a int, b text)").unwrap();
        // Lots of duplicate keys so stability matters.
        for i in 0..40 {
            db.execute(&format!("insert into t values ({}, 'row-{i}')", i % 5)).unwrap();
        }
        for k in [0, 1, 3, 7, 39, 40, 100] {
            let fast = db.query_ref(&format!("select a, b from t order by a limit {k}")).unwrap();
            // Reference: full sort (no limit), truncated by hand.
            let mut full = db.query_ref("select a, b from t order by a").unwrap();
            full.rows.truncate(k);
            assert_eq!(fast.rows, full.rows, "top-k diverged for k={k}");
        }
        // Descending with a secondary key.
        let fast = db.query_ref("select a, b from t order by a desc, b limit 5").unwrap();
        let mut full = db.query_ref("select a, b from t order by a desc, b").unwrap();
        full.rows.truncate(5);
        assert_eq!(fast.rows, full.rows);
    }

    #[test]
    fn render_ascii_aligns_multibyte_utf8() {
        let mut db = Database::new();
        db.execute("create table t (name text, comment text)").unwrap();
        db.execute("insert into t values ('köln-0', 'ascii row')").unwrap();
        db.execute("insert into t values ('plain', 'Grüße aus München ☀')").unwrap();
        // Stored as written, not byte by byte as Latin-1: mangled text
        // lines up too, so alignment alone would not show it.
        let rows = db.query_ref("select name, comment from t").unwrap();
        assert_eq!(rows.rows[0][0], Value::Text("köln-0".into()));
        assert_eq!(rows.rows[1][1], Value::Text("Grüße aus München ☀".into()));
        let text = rows.render_ascii();
        let widths: Vec<usize> = text.lines().map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "misaligned table (char widths {widths:?}):\n{text}"
        );
    }

    #[test]
    fn index_stays_correct_across_writes() {
        let mut db = sample_db();
        // Build the index via a read...
        let _ = db.query_ref("select name from nodes where membership = 2").unwrap();
        // ...then mutate through every write path and re-compare.
        db.execute("insert into nodes values (9, 'compute-1-0', 2, 1, 0, '10.9.9.9', NULL)")
            .unwrap();
        let sql = "select name from nodes where membership = 2 order by id";
        assert_eq!(db.query_ref(sql).unwrap(), db.query_ref_scan(sql).unwrap());
        db.execute("update nodes set membership = 8 where name = 'compute-0-1'").unwrap();
        assert_eq!(db.query_ref(sql).unwrap(), db.query_ref_scan(sql).unwrap());
        db.execute("delete from nodes where membership = 8").unwrap();
        assert_eq!(db.query_ref(sql).unwrap(), db.query_ref_scan(sql).unwrap());
    }

    #[test]
    fn coercion_pitfalls_match_scan() {
        let mut db = Database::new();
        db.execute("create table t (id int, tag text)").unwrap();
        for (id, tag) in [(1, "'5'"), (2, "'05'"), (3, "' 5'"), (4, "'x'"), (5, "NULL"), (6, "'6'")]
        {
            db.execute(&format!("insert into t values ({id}, {tag})")).unwrap();
        }
        for sql in [
            "select id from t where tag = '5'",
            "select id from t where tag = '05'",
            "select id from t where tag = ' 5'",
            "select id from t where tag = 5",
            "select id from t where id = '05'",
            "select id from t where tag = 'x'",
            "select id from t where tag = NULL",
        ] {
            assert_eq!(
                db.query_ref(sql).unwrap(),
                db.query_ref_scan(sql).unwrap(),
                "coercion diverged for {sql}"
            );
        }
    }
}
