//! Savepoints and the undo log: how a [`Database`] takes back what a
//! transaction did.
//!
//! Taking a savepoint is O(1): it notes the log's length and the schema
//! generation. While one is open every mutation entry point of the
//! database appends what reversing it needs — the old length for a run
//! of appends to one table, the displaced rows for UPDATE and DELETE,
//! the table itself for DROP, the name for CREATE — so the log grows
//! with what the transaction changed, never with what the database
//! holds. Rolling back pops the log newest first.
//!
//! The same entry points are where a journaled database notes which rows
//! no longer match the snapshot on disk ([`TreeImage`]): the position a
//! DELETE or a dropped table changes rows from, the rows an UPDATE
//! overwrites. An append needs no note — rows past the snapshot's count
//! are new by position. A rollback notes nothing and clears nothing: what
//! it restores was flagged when it changed, and a flag too many costs a
//! page at the next checkpoint, never a row.
//!
//! Acceleration state never outlives the rows it was built from: a
//! truncated table's hash indexes are repaired entry by entry, its
//! statistics are dropped, and a rollback clears the plan cache, because
//! the schema generation it restores can be reached again by different
//! DDL.

use crate::btree::TreeImage;
use crate::table::Table;
use crate::value::Value;
use crate::Database;
use std::collections::BTreeMap;

/// One reversible effect.
#[derive(Debug)]
enum Undo {
    /// `table` held `len` rows before rows were appended to it. While
    /// this is the newest record, further appends to `table` add none.
    Appended { table: String, len: usize },
    /// UPDATE displaced these `(position, row)` pairs.
    Updated { table: String, rows: Vec<(usize, Vec<Value>)> },
    /// DELETE removed these `(position, row)` pairs, ascending.
    Deleted { table: String, rows: Vec<(usize, Vec<Value>)> },
    /// CREATE TABLE added `table`.
    Created { table: String },
    /// DROP TABLE removed this table.
    Dropped(Table),
}

/// Present on a [`Database`] exactly while a savepoint is open.
#[derive(Debug, Default)]
pub(crate) struct UndoLog {
    records: Vec<Undo>,
    /// Rows the log has taken custody of (see [`Database::undo_rows`]).
    saved_rows: u64,
}

/// A state a [`Database`] can return to, from [`Database::savepoint`].
///
/// The outermost savepoint switches the undo log on and must be handed
/// back through [`Database::release`] or [`Database::rollback_to`], which
/// switch it off. A savepoint taken inside another is only a mark in the
/// same log: roll back to it, or let it lapse.
#[derive(Debug)]
#[must_use = "an outermost savepoint keeps the undo log growing until released or rolled back"]
pub struct Savepoint {
    mark: usize,
    schema_gen: u64,
    /// Where the run of appends the newest record covers had got to.
    appended_to: Option<usize>,
    outermost: bool,
}

impl Database {
    /// Mark the current state so it can be returned to. O(1).
    pub fn savepoint(&mut self) -> Savepoint {
        let outermost = self.undo.is_none();
        let log = self.undo.get_or_insert_with(UndoLog::default);
        let appended_to = match log.records.last() {
            Some(Undo::Appended { table, .. }) => Some(self.tables[table.as_str()].len()),
            _ => None,
        };
        Savepoint { mark: log.records.len(), schema_gen: self.schema_gen, appended_to, outermost }
    }

    /// Keep everything done since `sp`. O(1) plus freeing the log.
    pub fn release(&mut self, sp: Savepoint) {
        if sp.outermost {
            self.undo = None;
        }
    }

    /// Undo everything done since `sp`: rows, tables and the schema
    /// generation are exactly as they were. Costs what the undone
    /// statements cost.
    pub fn rollback_to(&mut self, sp: Savepoint) {
        let log = self.undo.as_mut().expect("a savepoint implies an undo log");
        while log.records.len() > sp.mark {
            match log.records.pop().expect("length checked") {
                Undo::Appended { table, len } => live(&mut self.tables, &table).truncate_rows(len),
                Undo::Updated { table, rows } => {
                    live(&mut self.tables, &table).replace_rows(rows);
                }
                Undo::Deleted { table, rows } => live(&mut self.tables, &table).reinsert_rows(rows),
                Undo::Created { table } => {
                    self.tables.remove(&table);
                }
                Undo::Dropped(table) => {
                    self.tables.insert(table.name().to_string(), table);
                }
            }
        }
        if let (Some(len), Some(Undo::Appended { table, .. })) =
            (sp.appended_to, log.records.last())
        {
            live(&mut self.tables, table).truncate_rows(len);
        }
        self.schema_gen = sp.schema_gen;
        self.cache.get_mut().entries.clear();
        if sp.outermost {
            self.undo = None;
        }
    }

    /// Rows the undo log has taken custody of since the outermost
    /// savepoint: one per row an UPDATE or DELETE displaced, plus the
    /// rows of dropped tables. Appends save none. Zero when no savepoint
    /// is open.
    pub fn undo_rows(&self) -> u64 {
        self.undo.as_ref().map_or(0, |log| log.saved_rows)
    }

    /// Rows may be about to be appended to `table` (a lower-cased name).
    pub(crate) fn log_append_point(&mut self, table: &str) {
        let (Some(log), Some(t)) = (&mut self.undo, self.tables.get(table)) else { return };
        if !matches!(log.records.last(), Some(Undo::Appended { table: last, .. }) if last == table)
        {
            log.records.push(Undo::Appended { table: table.to_string(), len: t.len() });
        }
    }

    pub(crate) fn log_created(&mut self, table: &str) {
        if let Some(log) = &mut self.undo {
            log.records.push(Undo::Created { table: table.to_string() });
        }
    }

    pub(crate) fn log_dropped(&mut self, table: Table) {
        // A table that comes back under the name, by CREATE or by
        // rollback, finds nothing of the snapshot's to keep.
        if let Some(image) = image(&mut self.images, table.name()) {
            image.dirty_from(0);
        }
        if let Some(log) = &mut self.undo {
            log.saved_rows += table.len() as u64;
            log.records.push(Undo::Dropped(table));
        }
    }

    /// Overwrite rows of `table` (a lower-cased, existing name) at the
    /// given ascending positions — how UPDATE applies its result.
    pub(crate) fn replace_rows(&mut self, table: &str, rows: Vec<(usize, Vec<Value>)>) {
        if rows.is_empty() {
            return;
        }
        if let Some(image) = image(&mut self.images, table) {
            rows.iter().for_each(|(position, _)| image.touch(*position));
        }
        let old = live(&mut self.tables, table).replace_rows(rows);
        if let Some(log) = &mut self.undo {
            log.saved_rows += old.len() as u64;
            log.records.push(Undo::Updated { table: table.to_string(), rows: old });
        }
    }

    /// Remove the rows of `table` (a lower-cased, existing name) at the
    /// given ascending positions — how DELETE applies its result.
    pub(crate) fn remove_rows(&mut self, table: &str, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        if let Some(image) = image(&mut self.images, table) {
            image.dirty_from(positions[0]);
        }
        let old = live(&mut self.tables, table).remove_rows(positions);
        if let Some(log) = &mut self.undo {
            log.saved_rows += old.len() as u64;
            log.records.push(Undo::Deleted { table: table.to_string(), rows: old });
        }
    }
}

fn live<'a>(tables: &'a mut BTreeMap<String, Table>, key: &str) -> &'a mut Table {
    tables.get_mut(key).expect("statements and undo records name live tables")
}

/// The snapshot's image of the table under `key`, where there is a
/// journal and its snapshot holds one.
fn image<'a>(
    images: &'a mut Option<BTreeMap<String, TreeImage>>,
    key: &str,
) -> Option<&'a mut TreeImage> {
    images.as_mut()?.get_mut(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lens(db: &Database) -> Vec<usize> {
        ["a", "b"].iter().map(|t| db.table(t).map_or(usize::MAX, Table::len)).collect()
    }

    /// An inner savepoint taken in the middle of a run of appends (which
    /// the log holds as one record) still returns to its own state.
    #[test]
    fn inner_savepoint_splits_a_run_of_appends() {
        let mut db = Database::new();
        db.execute("create table a (x int)").unwrap();
        db.execute("create table b (x int)").unwrap();
        let outer = db.savepoint();
        db.execute("insert into a values (1)").unwrap();
        db.execute("insert into a values (2)").unwrap();
        let inner = db.savepoint();
        db.execute("insert into a values (3)").unwrap();
        db.execute("insert into b values (1)").unwrap();
        db.execute("insert into a values (4)").unwrap();
        db.execute("update a set x = 0 where x = 1").unwrap();
        db.execute("drop table b").unwrap();
        assert_eq!(lens(&db), [4, usize::MAX]);
        db.rollback_to(inner);
        assert_eq!(lens(&db), [2, 0]);
        assert_eq!(db.query_column_ref("select x from a").unwrap(), ["1", "2"]);
        // The outer savepoint is still open and still logging.
        db.execute("insert into b values (2)").unwrap();
        db.rollback_to(outer);
        assert_eq!(lens(&db), [0, 0]);
        assert_eq!(db.undo_rows(), 0, "the log went with the outermost savepoint");
    }

    /// Appends made through the public `&mut Table` are covered too, and
    /// a release keeps them.
    #[test]
    fn table_mut_appends_are_logged_and_release_keeps_them() {
        let mut db = Database::new();
        db.execute("create table a (x int)").unwrap();
        let sp = db.savepoint();
        db.table_mut("A").unwrap().insert_row(vec![Value::Int(1)]).unwrap();
        db.rollback_to(sp);
        assert!(db.table("a").unwrap().is_empty());
        let sp = db.savepoint();
        db.table_mut("a").unwrap().insert_row(vec![Value::Int(2)]).unwrap();
        db.release(sp);
        assert_eq!(db.table("a").unwrap().len(), 1);
        assert!(db.undo.is_none());
    }
}
