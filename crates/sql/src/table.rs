//! Table storage: a schema plus rows, with transparent hash indexes.
//!
//! Indexes are built lazily the first time a column is probed for
//! equality (see [`Table::eq_index`]), kept current incrementally as rows
//! are appended (and as a rollback takes appended rows away again), and
//! dropped wholesale whenever rows are mutated in place (UPDATE/DELETE)
//! — the next probe rebuilds. They are pure acceleration state: `Clone`
//! shares them copy-on-write via `Rc`, and `PartialEq`/`Debug` ignore
//! them.

use crate::index::HashIndex;
use crate::stats::TableStats;
use crate::value::Value;
use crate::{Result, SqlError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Declared column types. Storage is dynamically typed (every cell is a
/// [`Value`]), but INSERT/UPDATE coerce or reject against the declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// String.
    Text,
}

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Lower-cased name.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
}

/// An in-memory table.
pub struct Table {
    name: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Value>>,
    /// Lazily built per-column hash indexes. Interior mutability lets the
    /// read-only query path build an index on first use. `Rc` lets a
    /// probe hold an index with the map released and makes
    /// `Table::clone` copy-on-write.
    indexes: RefCell<HashMap<usize, Rc<HashIndex>>>,
    /// Lazily built optimizer statistics — same acceleration-state
    /// pattern as `indexes`: built on first use by the read-only planner
    /// path, folded incrementally on append, dropped wholesale by
    /// in-place mutation, shared copy-on-write across clones.
    stats: RefCell<Option<Rc<TableStats>>>,
    /// Bumped on every row change (append *and* in-place mutation); the
    /// generation recorded inside [`TableStats`] must match for the
    /// cached statistics to be trusted.
    stats_gen: u64,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows: self.rows.clone(),
            // Share built indexes; a later insert_row on either copy
            // updates via Rc::make_mut (copy-on-write).
            indexes: self.indexes.clone(),
            stats: self.stats.clone(),
            stats_gen: self.stats_gen,
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        // Indexes are derived state — equality is schema + rows.
        self.name == other.name && self.columns == other.columns && self.rows == other.rows
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("columns", &self.columns)
            .field("rows", &self.rows)
            .field("indexed_columns", &self.indexes.borrow().len())
            .finish()
    }
}

impl Table {
    /// Create an empty table; names are lower-cased for case-insensitive
    /// lookup (MySQL on Linux is case-sensitive for table names but the
    /// Rocks tooling always writes lowercase).
    pub fn new(name: impl Into<String>, columns: Vec<(String, ColumnType)>) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            columns: columns
                .into_iter()
                .map(|(name, ty)| Column { name: name.to_ascii_lowercase(), ty })
                .collect(),
            rows: Vec::new(),
            indexes: RefCell::default(),
            stats: RefCell::default(),
            stats_gen: 0,
        }
    }

    /// Table name (lower-cased).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column declarations in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Mutable rows, for UPDATE/DELETE and their undo. In-place mutation
    /// invalidates every index and the statistics; the next probe or
    /// plan rebuilds lazily.
    fn rows_mut(&mut self) -> &mut Vec<Vec<Value>> {
        self.indexes.get_mut().clear();
        *self.stats.get_mut() = None;
        self.stats_gen += 1;
        &mut self.rows
    }

    /// Put each `(position, row)` in place of the row now there and
    /// return the displaced rows under the same positions — UPDATE's
    /// apply step, and (fed its own result) its undo.
    pub(crate) fn replace_rows(
        &mut self,
        mut rows: Vec<(usize, Vec<Value>)>,
    ) -> Vec<(usize, Vec<Value>)> {
        let stored = self.rows_mut();
        for (pos, row) in &mut rows {
            std::mem::swap(&mut stored[*pos], row);
        }
        rows
    }

    /// Remove the rows at `positions` (ascending), keeping the order of
    /// the rest, and return them with the positions they held.
    pub(crate) fn remove_rows(&mut self, positions: &[usize]) -> Vec<(usize, Vec<Value>)> {
        let mut removed = Vec::with_capacity(positions.len());
        let mut doomed = positions.iter().copied().peekable();
        let mut pos = 0;
        self.rows_mut().retain_mut(|row| {
            let hit = doomed.next_if_eq(&pos).is_some();
            if hit {
                removed.push((pos, std::mem::take(row)));
            }
            pos += 1;
            !hit
        });
        removed
    }

    /// Undo of [`remove_rows`](Self::remove_rows): every row is back at
    /// the position it was removed from.
    pub(crate) fn reinsert_rows(&mut self, removed: Vec<(usize, Vec<Value>)>) {
        let stored = self.rows_mut();
        let mut kept = std::mem::take(stored).into_iter();
        stored.reserve(kept.len() + removed.len());
        for (pos, row) in removed {
            stored.extend(kept.by_ref().take(pos - stored.len()));
            stored.push(row);
        }
        stored.extend(kept);
    }

    /// Undo of appends: drop every row from position `len` on. Built
    /// indexes give up exactly the entries those rows added; statistics
    /// cannot un-fold a row and are dropped.
    pub(crate) fn truncate_rows(&mut self, len: usize) {
        if len >= self.rows.len() {
            return;
        }
        for (&column, index) in self.indexes.get_mut().iter_mut() {
            let index = Rc::make_mut(index);
            for row in (len..self.rows.len()).rev() {
                index.remove_last(&self.rows[row][column], row as u32);
            }
        }
        self.rows.truncate(len);
        *self.stats.get_mut() = None;
        self.stats_gen += 1;
    }

    /// Hash index for `column`, building it on first use. Returns a cheap
    /// `Rc` handle, so the index map is not borrowed while callers probe.
    /// Panics if `column` is out of range (callers resolve columns first).
    pub fn eq_index(&self, column: usize) -> Rc<HashIndex> {
        assert!(column < self.columns.len(), "eq_index: column out of range");
        if let Some(index) = self.indexes.borrow().get(&column) {
            return Rc::clone(index);
        }
        let built = Rc::new(HashIndex::build(self.rows.iter().map(|r| &r[column])));
        self.indexes.borrow_mut().insert(column, Rc::clone(&built));
        built
    }

    /// Number of columns currently carrying a built index (introspection
    /// for tests and EXPLAIN).
    pub fn indexed_columns(&self) -> usize {
        self.indexes.borrow().len()
    }

    /// Whether `column` already carries a built hash index. The cost
    /// model charges a full build for cold indexes and nothing for warm
    /// ones.
    pub fn has_eq_index(&self, column: usize) -> bool {
        self.indexes.borrow().contains_key(&column)
    }

    /// Optimizer statistics for this table, building them on first use.
    /// Returns a cheap `Rc` handle.
    pub fn stats(&self) -> Rc<TableStats> {
        self.stats_with_info().0
    }

    /// [`stats`](Self::stats) plus whether this call performed a (re)build
    /// — the `sql.opt.stats_builds` telemetry signal.
    pub fn stats_with_info(&self) -> (Rc<TableStats>, bool) {
        if let Some(ts) = self.stats.borrow().as_ref() {
            if ts.generation == self.stats_gen && !ts.needs_rebuild() {
                return (Rc::clone(ts), false);
            }
        }
        let built = Rc::new(TableStats::build(&self.rows, self.columns.len(), self.stats_gen));
        *self.stats.borrow_mut() = Some(Rc::clone(&built));
        (built, true)
    }

    /// Statistics if already built *and* current, without building.
    pub fn stats_if_warm(&self) -> Option<Rc<TableStats>> {
        let slot = self.stats.borrow();
        let ts = slot.as_ref()?;
        (ts.generation == self.stats_gen).then(|| Rc::clone(ts))
    }

    /// Size band for plan-cache hysteresis: `floor(log2(rows)) + 1` (0
    /// for an empty table). Single-row inserts only cross a band at
    /// powers of two, so cached plans survive steady-state trickle
    /// inserts but a table growing 100× always re-plans.
    pub fn stats_band(&self) -> u32 {
        64 - (self.rows.len() as u64).leading_zeros()
    }

    /// Fold a freshly appended row (already in `self.rows`) into every
    /// built index.
    fn index_appended_row(&mut self) {
        let row = self.rows.len() - 1;
        for (&column, index) in self.indexes.get_mut().iter_mut() {
            Rc::make_mut(index).add(&self.rows[row][column], row as u32);
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Validate and coerce a value against a column's declared type.
    /// Ints are accepted into TEXT columns (rendered), and integer-shaped
    /// strings into INT columns — matching MySQL's forgiving coercion that
    /// the Rocks scripts rely on.
    pub fn coerce(column: &Column, value: Value) -> Result<Value> {
        match (column.ty, value) {
            (_, Value::Null) => Ok(Value::Null),
            (ColumnType::Int, Value::Int(n)) => Ok(Value::Int(n)),
            (ColumnType::Text, Value::Text(s)) => Ok(Value::Text(s)),
            (ColumnType::Text, Value::Int(n)) => Ok(Value::Text(n.to_string())),
            (ColumnType::Int, Value::Text(s)) => match s.trim().parse::<i64>() {
                Ok(n) => Ok(Value::Int(n)),
                Err(_) => Err(SqlError::TypeMismatch(format!(
                    "cannot store {s:?} in INT column {}",
                    column.name
                ))),
            },
        }
    }

    /// Validate and coerce a full-width row without storing it, each
    /// cell within the `Vec` it is given, which becomes the stored row.
    /// Staging separately from appending lets multi-row INSERT check every
    /// row before touching the table, so a failed statement has no effect —
    /// the atomicity the durable engine's statement-level WAL relies on.
    pub(crate) fn stage_row(&self, mut values: Vec<Value>) -> Result<Vec<Value>> {
        if values.len() != self.columns.len() {
            return Err(SqlError::TypeMismatch(format!(
                "table {} has {} columns but {} values were supplied",
                self.name,
                self.columns.len(),
                values.len()
            )));
        }
        for (col, cell) in self.columns.iter().zip(&mut values) {
            *cell = Self::coerce(col, std::mem::replace(cell, Value::Null))?;
        }
        Ok(values)
    }

    /// Validate and coerce a named-subset row without storing it. The
    /// `Vec` it is given is as wide as `names`, not the table, so each
    /// value is coerced as it moves out of it into the full-width row
    /// built here; unnamed columns get NULL.
    pub(crate) fn stage_named(&self, names: &[String], values: Vec<Value>) -> Result<Vec<Value>> {
        if names.len() != values.len() {
            return Err(SqlError::TypeMismatch(format!(
                "{} columns named but {} values supplied",
                names.len(),
                values.len()
            )));
        }
        let mut row = vec![Value::Null; self.columns.len()];
        for (name, value) in names.iter().zip(values) {
            let idx = self
                .column_index(name)
                .ok_or_else(|| SqlError::NoSuchColumn(format!("{}.{name}", self.name)))?;
            row[idx] = Self::coerce(&self.columns[idx], value)?;
        }
        Ok(row)
    }

    /// Append a row previously coerced by [`stage_row`](Self::stage_row) /
    /// [`stage_named`](Self::stage_named). Infallible by construction.
    pub(crate) fn append_staged(&mut self, row: Vec<Value>) {
        self.rows.push(row);
        self.stats_gen += 1;
        self.index_appended_row();
        self.fold_appended_into_stats();
    }

    /// Fold the just-appended row into cached statistics when they
    /// describe exactly the previous generation; otherwise drop them (a
    /// gap means they were already stale).
    fn fold_appended_into_stats(&mut self) {
        let row = self.rows.last().expect("just pushed");
        let slot = self.stats.get_mut();
        if let Some(ts) = slot {
            if ts.generation + 1 == self.stats_gen {
                Rc::make_mut(ts).fold_appended(row, self.stats_gen);
            } else {
                *slot = None;
            }
        }
    }

    /// Append a full-width row, coercing each value.
    pub fn insert_row(&mut self, values: Vec<Value>) -> Result<()> {
        let row = self.stage_row(values)?;
        self.append_staged(row);
        Ok(())
    }

    /// Column positions currently carrying a built hash index, sorted.
    /// The durable engine's checkpoint lists them in the catalog so a
    /// recovered process starts with the same columns warmed.
    pub fn indexed_column_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.indexes.borrow().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::new("Nodes", vec![("ID".into(), ColumnType::Int), ("Name".into(), ColumnType::Text)])
    }

    #[test]
    fn names_are_lowercased() {
        let table = t();
        assert_eq!(table.name(), "nodes");
        assert_eq!(table.columns()[0].name, "id");
        assert_eq!(table.column_index("ID"), Some(0));
        assert_eq!(table.column_index("nAmE"), Some(1));
        assert_eq!(table.column_index("missing"), None);
    }

    #[test]
    fn insert_row_coerces() {
        let mut table = t();
        table.insert_row(vec![Value::Text(" 7 ".into()), Value::Int(3)]).unwrap();
        assert_eq!(table.rows()[0], vec![Value::Int(7), Value::Text("3".into())]);
    }

    #[test]
    fn insert_row_rejects_bad_int() {
        let mut table = t();
        let err = table.insert_row(vec![Value::Text("abc".into()), Value::Null]).unwrap_err();
        assert!(matches!(err, SqlError::TypeMismatch(_)));
        // The first INT cell coerces in place, the second does not: the
        // error names the second column and the table stays as it was.
        let mut table = Table::new(
            "nodes",
            vec![("id".into(), ColumnType::Int), ("rack".into(), ColumnType::Int)],
        );
        table.insert_row(vec![Value::Int(1), Value::Int(2)]).unwrap();
        let before = table.clone();
        let err =
            table.insert_row(vec![Value::Text(" 7 ".into()), Value::Text("x".into())]).unwrap_err();
        assert_eq!(err, SqlError::TypeMismatch("cannot store \"x\" in INT column rack".into()));
        assert_eq!(table, before);
    }

    #[test]
    fn insert_row_arity_checked() {
        let mut table = t();
        assert!(table.insert_row(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn stage_named_fills_nulls() {
        let mut table = t();
        let row = table.stage_named(&["name".into()], vec![Value::Text("compute-0-0".into())]);
        table.append_staged(row.unwrap());
        assert_eq!(table.rows()[0], vec![Value::Null, Value::Text("compute-0-0".into())]);
    }

    #[test]
    fn stage_named_unknown_column() {
        let table = t();
        let err = table.stage_named(&["bogus".into()], vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, SqlError::NoSuchColumn(_)));
    }

    fn probe_all(table: &Table, col: usize, v: &Value) -> Vec<u32> {
        let ix = table.eq_index(col);
        let mut scratch = Vec::new();
        ix.probe(v, &mut scratch).0.to_vec()
    }

    #[test]
    fn index_builds_lazily_and_tracks_inserts() {
        let mut table = t();
        table.insert_row(vec![Value::Int(1), Value::Text("a".into())]).unwrap();
        table.insert_row(vec![Value::Int(2), Value::Text("b".into())]).unwrap();
        assert_eq!(table.indexed_columns(), 0);
        assert_eq!(probe_all(&table, 0, &Value::Int(2)), vec![1]);
        assert_eq!(table.indexed_columns(), 1);
        // An append after the index exists must be reflected.
        table.insert_row(vec![Value::Int(2), Value::Text("c".into())]).unwrap();
        assert_eq!(probe_all(&table, 0, &Value::Int(2)), vec![1, 2]);
    }

    #[test]
    fn rows_mut_invalidates_indexes() {
        let mut table = t();
        table.insert_row(vec![Value::Int(1), Value::Text("a".into())]).unwrap();
        let _ = table.eq_index(0);
        assert_eq!(table.indexed_columns(), 1);
        table.rows_mut()[0][0] = Value::Int(9);
        assert_eq!(table.indexed_columns(), 0);
        // Rebuild sees the mutated value.
        assert_eq!(probe_all(&table, 0, &Value::Int(9)), vec![0]);
        assert!(probe_all(&table, 0, &Value::Int(1)).is_empty());
    }

    #[test]
    fn truncate_leaves_the_indexes_a_rebuild_would_give() {
        let rows = [(1, "5"), (2, "x"), (1, "05"), (5, "5"), (2, "x")];
        let mut table = t();
        for (id, name) in rows {
            table.insert_row(vec![Value::Int(id), Value::Text(name.into())]).unwrap();
        }
        let (_, _, _) = (table.eq_index(0), table.eq_index(1), table.stats());
        table.truncate_rows(2);
        let mut fresh = t();
        for (id, name) in &rows[..2] {
            fresh.insert_row(vec![Value::Int(*id), Value::Text((*name).into())]).unwrap();
        }
        assert_eq!(table, fresh);
        assert_eq!(table.indexed_columns(), 2, "indexes stay warm");
        assert_eq!(*table.eq_index(0), *fresh.eq_index(0));
        assert_eq!(*table.eq_index(1), *fresh.eq_index(1));
        assert!(table.stats_if_warm().is_none(), "statistics cannot un-fold a row");
    }

    #[test]
    fn removed_rows_go_back_where_they_were() {
        let mut table = t();
        for id in 0..6 {
            table.insert_row(vec![Value::Int(id), Value::Null]).unwrap();
        }
        let before = table.clone();
        let removed = table.remove_rows(&[0, 2, 5]);
        let ids: Vec<_> = table.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, [Value::Int(1), Value::Int(3), Value::Int(4)]);
        assert_eq!(removed.iter().map(|(pos, _)| *pos).collect::<Vec<_>>(), [0, 2, 5]);
        table.reinsert_rows(removed);
        assert_eq!(table, before);
    }

    #[test]
    fn clone_shares_then_diverges() {
        let mut table = t();
        table.insert_row(vec![Value::Int(1), Value::Text("a".into())]).unwrap();
        let _ = table.eq_index(0);
        let mut copy = table.clone();
        assert_eq!(copy.indexed_columns(), 1);
        copy.insert_row(vec![Value::Int(1), Value::Text("b".into())]).unwrap();
        // The copy sees both rows; the original is untouched.
        assert_eq!(probe_all(&copy, 0, &Value::Int(1)), vec![0, 1]);
        assert_eq!(probe_all(&table, 0, &Value::Int(1)), vec![0]);
        assert_eq!(table, table.clone(), "equality ignores index state");
    }
}
