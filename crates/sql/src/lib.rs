#![warn(missing_docs)]

//! An embedded mini-SQL engine: the reproduction's stand-in for MySQL.
//!
//! Rocks keeps all "global knowledge" of the cluster in a MySQL database
//! (paper §6.4) and deliberately exposes *raw SQL* to administrators:
//! management scripts accept `--query="select nodes.name from
//! nodes,memberships where ..."`, including multi-table joins. Faithfully
//! reproducing that interface requires an actual SQL engine, not a typed
//! key-value store — so this crate implements one, sized to the subset the
//! paper exercises:
//!
//! * `CREATE TABLE t (col INT, col TEXT, ...)`
//! * `INSERT INTO t [(cols)] VALUES (...), (...)`
//! * `SELECT cols FROM t1, t2, ... [WHERE expr] [GROUP BY cols]
//!   [ORDER BY col [DESC]] [LIMIT n]` with qualified names
//!   (`nodes.name`), comparison operators, `AND`/`OR`, `NOT`,
//!   parentheses, `LIKE` patterns, `IS [NOT] NULL`, and the aggregates
//!   `COUNT(*)`, `MIN(col)`, `MAX(col)`, `SUM(col)` — grouped or global
//! * `UPDATE t SET col = expr [WHERE expr]`
//! * `DELETE FROM t [WHERE expr]`
//!
//! # Example — the paper's own query (§6.4)
//!
//! ```
//! use rocks_sql::Database;
//!
//! let mut db = Database::new();
//! db.execute("create table nodes (name text, membership int)").unwrap();
//! db.execute("create table memberships (id int, name text)").unwrap();
//! db.execute("insert into nodes values ('compute-0-0', 2)").unwrap();
//! db.execute("insert into memberships values (2, 'Compute')").unwrap();
//!
//! let rows = db.query_ref(
//!     "select nodes.name from nodes,memberships where \
//!      nodes.membership = memberships.id and memberships.name = 'Compute'",
//! ).unwrap();
//! assert_eq!(rows.rows[0][0].as_text(), Some("compute-0-0"));
//! ```

mod ast;
pub(crate) mod codec;
mod cost;
mod disk;
pub mod durable;
mod exec;
mod index;
mod leaves;
mod lexer;
mod pager;
mod parser;
mod plan;
mod recovery;
mod stats;
mod table;
mod undo;
mod value;
pub mod wal;

pub use ast::{BinOp, ColumnRef, Expr, OrderKey, SelectItem, Statement};
pub use disk::{crc32, CrashPlan, DiskError, DiskFile, FileVfs, MemVfs, Vfs};
pub use durable::{DurableDatabase, DurableError};
pub use exec::{ExecOutcome, QueryResult};
pub use index::HashIndex;
pub use lexer::{lex, Token};
pub use pager::{PAGE_PAYLOAD, PAGE_SIZE};
pub use parser::parse;
pub use recovery::{RecoveryError, RecoveryReport};
pub use stats::TableStats;
pub use table::{Column, ColumnType, Table};
pub use undo::Savepoint;
pub use value::Value;

use rocks_trace::{Counter, Histogram, Registry};
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Errors from any stage of statement processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Tokenizer-level problem (unterminated string, stray character).
    Lex(String),
    /// Grammar-level problem.
    Parse(String),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column, with the name as written.
    NoSuchColumn(String),
    /// Ambiguous unqualified column in a join.
    AmbiguousColumn(String),
    /// Table already exists.
    TableExists(String),
    /// Wrong arity or type in an INSERT/UPDATE.
    TypeMismatch(String),
    /// Anything else (e.g. aggregate misuse).
    Unsupported(String),
    /// An expression nested deeper than the parser accepts.
    TooDeep {
        /// The deepest expression the parser builds.
        limit: usize,
    },
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            SqlError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            SqlError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            SqlError::TableExists(t) => write!(f, "table already exists: {t}"),
            SqlError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            SqlError::Unsupported(m) => write!(f, "unsupported: {m}"),
            SqlError::TooDeep { limit } => write!(
                f,
                "expression nested deeper than {limit} levels (a long OR list is written IN (...))"
            ),
        }
    }
}

impl std::error::Error for SqlError {}

/// Result alias for SQL operations.
pub type Result<T> = std::result::Result<T, SqlError>;

/// A parsed-and-planned statement held by the cache behind
/// [`Database::query_ref`]: parse once, plan once, execute many.
#[derive(Debug)]
struct Prepared {
    stmt: Statement,
    /// The plan for a SELECT with a WHERE clause; `None` records that
    /// planning declined (the executor then uses the scan path), which
    /// stays correct until the schema changes — and schema changes flush
    /// the whole cache via the generation check.
    plan: Option<plan::SelectPlan>,
}

/// A statement prepared with the cache at this size first sweeps it:
/// entries not looked up since the previous sweep go, the rest stay with
/// their hit bits cleared, and only when every entry was hit does the
/// whole cache go. Never-repeated `format!`-built SQL therefore cycles
/// through the free slots without flushing the statements in use.
const PLAN_CACHE_CAP: usize = 512;

/// One statement-cache entry.
#[derive(Debug)]
struct Cached {
    prepared: Rc<Prepared>,
    /// Looked up since the last sweep.
    hit: bool,
}

/// Interior-mutable statement cache. Lives in a `RefCell` so the
/// read-only [`Database::query_ref`] path can fill it; it is borrowed
/// only for lookup/insert, never during parse, planning or execution.
#[derive(Debug, Default)]
struct PlanCache {
    /// Schema generation the entries were prepared under.
    schema_gen: u64,
    /// Stats epoch the entries were costed under — a hash over every
    /// table's size *band* (power-of-two bucket of its row count), not
    /// its exact row count. The band gives the cache hysteresis: a
    /// single-row INSERT almost never crosses a band boundary, so steady
    /// trickle writes keep their cached plans, while a table growing
    /// 100x crosses several bands and forces a re-cost.
    stats_epoch: u64,
    entries: HashMap<String, Cached>,
}

/// Planner/executor telemetry, backed by [`rocks_trace`] counter handles
/// so the same numbers surface in a cluster-wide metrics registry (see
/// DESIGN.md "Observability"). Every counter has exactly one source of
/// truth: the registry handle this struct holds a clone of.
#[derive(Debug, Clone)]
pub struct QueryStats {
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    indexed_exec: Counter,
    scan_exec: Counter,
    lookups: Counter,
    rows_examined: Counter,
    rows_returned: Counter,
    plans_costed: Counter,
    stats_builds: Counter,
    join_reorders: Counter,
    /// Estimated/actual joined-row ratio per costed execution, in
    /// percent: 100 = exact, <100 = underestimate, >100 = overestimate.
    est_actual_pct: Histogram,
}

/// Bucket bounds for the estimated-vs-actual ratio histogram (percent).
/// 100 is exact; the 80–125 band is "good enough to pick the same plan".
const EST_ACTUAL_BOUNDS: &[u64] = &[25, 50, 80, 95, 105, 125, 200, 400, 1600];

impl QueryStats {
    fn bound_to(registry: Registry) -> Self {
        QueryStats {
            plan_cache_hits: registry.counter("sql.plan.cache_hits"),
            plan_cache_misses: registry.counter("sql.plan.cache_misses"),
            indexed_exec: registry.counter("sql.plan.indexed"),
            scan_exec: registry.counter("sql.plan.scan"),
            lookups: registry.counter("sql.lookup_eq"),
            rows_examined: registry.counter("sql.rows.examined"),
            rows_returned: registry.counter("sql.rows.returned"),
            plans_costed: registry.counter("sql.opt.plans_costed"),
            stats_builds: registry.counter("sql.opt.stats_builds"),
            join_reorders: registry.counter("sql.opt.join_reorders"),
            est_actual_pct: registry.histogram("sql.opt.est_actual_pct", EST_ACTUAL_BOUNDS),
        }
    }

    /// Cached-plan lookups that hit (`Database::query_ref`).
    pub fn plan_cache_hits(&self) -> u64 {
        self.plan_cache_hits.get()
    }

    /// Cached-plan lookups that missed and had to parse + plan.
    pub fn plan_cache_misses(&self) -> u64 {
        self.plan_cache_misses.get()
    }

    /// SELECT executions that ran an index-using pipeline (a point
    /// lookup or hash join somewhere in the plan).
    pub fn indexed_executions(&self) -> u64 {
        self.indexed_exec.get()
    }

    /// SELECT executions that scanned (no plan, planning declined, or a
    /// plan with no index access).
    pub fn scan_executions(&self) -> u64 {
        self.scan_exec.get()
    }

    /// Rows enumerated/probed while producing results.
    pub fn rows_examined(&self) -> u64 {
        self.rows_examined.get()
    }

    /// Rows returned to callers.
    pub fn rows_returned(&self) -> u64 {
        self.rows_returned.get()
    }

    pub(crate) fn record_select(&self, examined: u64, returned: u64, used_index: bool) {
        self.rows_examined.add(examined);
        self.rows_returned.add(returned);
        if used_index {
            self.indexed_exec.incr();
        } else {
            self.scan_exec.incr();
        }
    }

    pub(crate) fn record_planning(&self, info: &plan::PlanInfo, reordered: bool) {
        self.plans_costed.incr();
        self.stats_builds.add(info.stats_builds);
        if reordered {
            self.join_reorders.incr();
        }
    }

    /// Record one costed execution's estimate quality. `+1` on both
    /// sides keeps empty results meaningful (est 0 / actual 0 → 100%).
    pub(crate) fn record_estimate(&self, est_rows: f64, actual_rows: u64) {
        let pct = (est_rows + 1.0) / (actual_rows as f64 + 1.0) * 100.0;
        self.est_actual_pct.record(pct.round().clamp(0.0, 100_000.0) as u64);
    }
}

impl Default for QueryStats {
    fn default() -> Self {
        QueryStats::bound_to(Registry::new())
    }
}

/// An in-memory database: a set of named tables.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// Bumped on CREATE/DROP TABLE; prepared statements from an older
    /// generation are discarded (their resolved column indices and plans
    /// may no longer match the schema).
    schema_gen: u64,
    cache: RefCell<PlanCache>,
    stats: QueryStats,
    /// What reverses the open transaction's statements; `None` outside
    /// a [`Savepoint`].
    undo: Option<undo::UndoLog>,
    /// Per table, where the journal's live snapshot keeps it and which
    /// rows have changed since, so that a checkpoint writes those alone;
    /// `None` without a journal. A table the snapshot does not hold has
    /// no entry.
    pub(crate) images: Option<BTreeMap<String, leaves::TableImage>>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        // The cache is pure acceleration state; a clone starts cold —
        // and with fresh counters, so clones never double-count. It is
        // a detached copy of the current contents: an open savepoint
        // and the journal's snapshot stay with the original.
        Database {
            tables: self.tables.clone(),
            schema_gen: self.schema_gen,
            cache: RefCell::new(PlanCache::default()),
            stats: QueryStats::default(),
            undo: None,
            images: None,
        }
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Parse and execute one statement of any kind.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        let stmt = parser::parse(sql)?;
        exec::execute(self, stmt)
    }

    /// Run a `SELECT` against a shared reference: the read path of the
    /// Kickstart generation service. Write statements are rejected.
    ///
    /// Statements are parsed and planned once, then cached by SQL text:
    /// repeated queries (the per-node lookups of a mass reinstall) skip
    /// straight to execution against hash indexes. The cache is flushed
    /// whenever the schema generation changes and is capped at 512
    /// entries.
    pub fn query_ref(&self, sql: &str) -> Result<QueryResult> {
        self.read_ref(sql)
    }

    /// [`query_ref`](Self::query_ref) into the sink `S`.
    fn read_ref<S: exec::Sink>(&self, sql: &str) -> Result<S> {
        let prepared = self.prepare(sql)?;
        exec::execute_readonly_with(
            self,
            &prepared.stmt,
            exec::PlanChoice::Prepared(prepared.plan.as_ref()),
        )
    }

    /// [`query_ref`](Self::query_ref) with the planner disabled: parse
    /// and run the naive scan path. This is the oracle the differential
    /// suites hold the planner to (see `tests/proptest_plan.rs` and
    /// `tests/select_corpus.rs`), and the benchmark ledger's
    /// `verify_pool` checks its query pool against it.
    pub fn query_ref_scan(&self, sql: &str) -> Result<QueryResult> {
        let stmt = parser::parse(sql)?;
        exec::execute_readonly_with(self, &stmt, exec::PlanChoice::ForceScan)
    }

    /// Hash of every table's name and size *band* (power-of-two bucket
    /// of its row count). Part of the plan-cache key: when any table
    /// crosses a band boundary its cost tradeoffs may have flipped, so
    /// cached plans are re-costed. Banding (rather than the raw stats
    /// generation) is the hysteresis that keeps single-row INSERTs from
    /// evicting the cache on every write.
    fn stats_epoch(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in self.tables.values() {
            for b in t.name().as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h ^= u64::from(t.stats_band());
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Fetch (or create) the cached parse+plan for `sql`.
    fn prepare(&self, sql: &str) -> Result<Rc<Prepared>> {
        let stats_epoch = self.stats_epoch();
        {
            let mut cache = self.cache.borrow_mut();
            if cache.schema_gen != self.schema_gen || cache.stats_epoch != stats_epoch {
                cache.entries.clear();
                cache.schema_gen = self.schema_gen;
                cache.stats_epoch = stats_epoch;
            }
            if let Some(entry) = cache.entries.get_mut(sql) {
                entry.hit = true;
                self.stats.plan_cache_hits.incr();
                return Ok(Rc::clone(&entry.prepared));
            }
        }
        self.stats.plan_cache_misses.incr();
        // Parse and plan with the cache released. Through `&self`
        // neither the schema generation nor a table's size band can move
        // before the insert, so the cache is still the one checked above.
        let stmt = parser::parse(sql)?;
        let plan = match &stmt {
            Statement::Select { from, where_clause: Some(w), .. } => {
                // Planning needs every FROM table present; if one is
                // missing, record "no plan" — execution will raise the
                // same NoSuchTable the scan path would.
                let tables: Option<Vec<(&str, &Table)>> =
                    from.iter().map(|name| self.table(name).map(|t| (t.name(), t))).collect();
                tables.and_then(|tables| {
                    plan::plan_select(&tables, w).map(|(p, info)| {
                        self.stats.record_planning(&info, p.reordered);
                        p
                    })
                })
            }
            _ => None,
        };
        let prepared = Rc::new(Prepared { stmt, plan });
        let mut cache = self.cache.borrow_mut();
        if cache.entries.len() >= PLAN_CACHE_CAP {
            cache.entries.retain(|_, entry| std::mem::take(&mut entry.hit));
            if cache.entries.len() >= PLAN_CACHE_CAP {
                cache.entries.clear();
            }
        }
        let entry = Cached { prepared: Rc::clone(&prepared), hit: false };
        cache.entries.insert(sql.to_string(), entry);
        Ok(prepared)
    }

    /// Number of statements currently prepared (introspection for tests).
    pub fn prepared_statements(&self) -> usize {
        self.cache.borrow().entries.len()
    }

    /// Would [`query_ref`](Self::query_ref) for this exact SQL text skip
    /// planning right now? A pure probe: no counters move, the cache is
    /// neither flushed nor populated. A cached entry only counts as warm
    /// if the whole cache is still valid (same schema generation and
    /// stats epoch), since the next real query would otherwise flush it.
    /// The serving frontend uses this to price a report query before
    /// executing it.
    pub fn plan_cached(&self, sql: &str) -> bool {
        let stats_epoch = self.stats_epoch();
        let cache = self.cache.borrow();
        cache.schema_gen == self.schema_gen
            && cache.stats_epoch == stats_epoch
            && cache.entries.contains_key(sql)
    }

    /// Planner/executor telemetry for this database.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Rebind this database's [`QueryStats`] to an external registry
    /// (e.g. a [`rocks_trace::Tracer`]'s), so SQL counters land in the
    /// same cluster-wide view as everything else. Counters restart from
    /// the registry's current values.
    pub fn bind_stats_registry(&mut self, registry: &Registry) {
        self.stats = QueryStats::bound_to(registry.clone());
    }

    /// Prepared point lookup: the rows of `table` whose `column` equals
    /// `value` under SQL semantics — the rows `SELECT * FROM table WHERE
    /// column = <value>` returns, in row order — borrowed from the table.
    /// Bypasses SQL text entirely — no parse, no plan, no per-call
    /// `format!` — and copies no cell, so the hot rocks-db accessors
    /// (`node_by_ip`, `membership`, ...) cost one index probe and read
    /// only the fields they keep.
    pub fn lookup_eq(&self, table: &str, column: &str, value: &Value) -> Result<Vec<&[Value]>> {
        let t = self.table(table).ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
        let col = t
            .column_index(column)
            .ok_or_else(|| SqlError::NoSuchColumn(format!("{}.{column}", t.name())))?;
        let index = t.eq_index(col);
        let mut scratch = Vec::new();
        let candidates = index.probe(value, &mut scratch);
        self.stats.lookups.incr();
        self.stats.rows_examined.add(candidates.len() as u64);
        let rows: Vec<&[Value]> = candidates
            .iter()
            .map(|&r| t.rows()[r as usize].as_slice())
            // Candidates are a superset; keep only true equality.
            .filter(|row| row[col].sql_cmp(value) == Some(Ordering::Equal))
            .collect();
        self.stats.rows_returned.add(rows.len() as u64);
        Ok(rows)
    }

    /// [`query_ref`](Self::query_ref) returning the first column of every
    /// row rendered as text. This is exactly how `cluster-kill --query=...`
    /// consumes results (paper §6.4): a list of node names. Each name is
    /// rendered straight from its cell; no result rows are built.
    pub fn query_column_ref(&self, sql: &str) -> Result<Vec<String>> {
        self.read_ref(sql)
    }

    /// Look up a table by (case-insensitive) name. A name without ASCII
    /// uppercase — every name the typed accessors pass — is the key as
    /// given, so the lookup allocates nothing.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&*table_key(name))
    }

    /// Mutable table lookup. The public surface of `&mut Table` can only
    /// append, so under a [`Savepoint`] noting the length here is enough
    /// to take back whatever the caller does with it. Like
    /// [`table`](Self::table), it copies the name only when it has
    /// uppercase: the parser's names never do.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        let key = table_key(name);
        self.log_append_point(&key);
        self.tables.get_mut(&*key)
    }

    /// Register a table built programmatically.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let key = table.name().to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(SqlError::TableExists(table.name().to_string()));
        }
        self.log_created(&key);
        self.tables.insert(key, table);
        self.schema_gen += 1;
        Ok(())
    }

    /// Remove a table (no-op if absent). Returns whether it existed.
    pub fn remove_table(&mut self, name: &str) -> bool {
        let Some(table) = self.tables.remove(&name.to_ascii_lowercase()) else {
            return false;
        };
        self.log_dropped(table);
        self.schema_gen += 1;
        true
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.values().map(|t| t.name()).collect()
    }

    /// The current schema generation: bumped on every CREATE/DROP TABLE.
    /// The durable engine journals it with each commit and restores it on
    /// recovery so plan-cache keys survive a restart coherently.
    pub fn schema_generation(&self) -> u64 {
        self.schema_gen
    }

    /// Restore the schema generation recorded by a checkpoint or commit
    /// record (recovery only — the replayed CREATE TABLE statements bump
    /// the counter from zero, and this realigns it with the journal).
    pub(crate) fn set_schema_generation(&mut self, schema_gen: u64) {
        self.schema_gen = schema_gen;
    }
}

/// The key `name` is stored under: a copy only when it has ASCII
/// uppercase, so the lowercase names the typed accessors and the parser
/// pass cost nothing.
fn table_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_paper_join() {
        let mut db = Database::new();
        db.execute("create table nodes (id int, name text, membership int, rack int, rank int)")
            .unwrap();
        db.execute("create table memberships (id int, name text, compute text)").unwrap();
        db.execute("insert into nodes values (1, 'frontend-0', 1, 0, 0)").unwrap();
        db.execute("insert into nodes values (4, 'compute-0-0', 2, 0, 0)").unwrap();
        db.execute("insert into nodes values (5, 'compute-0-1', 2, 0, 1)").unwrap();
        db.execute("insert into memberships values (1, 'Frontend', 'no')").unwrap();
        db.execute("insert into memberships values (2, 'Compute', 'yes')").unwrap();

        // The exact query from §6.4's cluster-kill example.
        let names = db
            .query_column_ref(
                "select nodes.name from nodes,memberships where \
                 nodes.membership = memberships.id and \
                 memberships.name = 'Compute'",
            )
            .unwrap();
        assert_eq!(names, vec!["compute-0-0", "compute-0-1"]);

        // And the simpler rack-targeted form.
        let names = db.query_column_ref("select name from nodes where rack=0 and rank=1").unwrap();
        assert_eq!(names, vec!["compute-0-1"]);
    }

    #[test]
    fn query_on_write_statement_errors() {
        let mut db = Database::new();
        db.execute("create table t (x int)").unwrap();
        assert!(matches!(db.query_ref("insert into t values (1)"), Err(SqlError::Unsupported(_))));
        assert!(db.query_column_ref("delete from t").is_err());
        assert_eq!(db.table("t").unwrap().len(), 0, "a refused write must not run");
        db.execute("insert into t values (1)").unwrap();
        assert!(db.query_ref("delete from t").is_err());
        assert_eq!(db.query_column_ref("select x from t").unwrap(), ["1"]);
    }

    fn two_table_db() -> Database {
        let mut db = Database::new();
        db.execute("create table nodes (id int, name text, membership int, ip text)").unwrap();
        db.execute("create table memberships (id int, name text)").unwrap();
        db.execute(
            "insert into nodes values (1, 'frontend-0', 1, '10.1.1.1'), \
             (2, 'compute-0-0', 2, '10.1.1.2'), (3, 'compute-0-1', 2, '10.1.1.3')",
        )
        .unwrap();
        db.execute("insert into memberships values (1, 'Frontend'), (2, 'Compute')").unwrap();
        db
    }

    #[test]
    fn query_ref_caches_statements() {
        let db = two_table_db();
        assert_eq!(db.prepared_statements(), 0);
        let sql = "select name from nodes where ip = '10.1.1.2'";
        let first = db.query_ref(sql).unwrap();
        assert_eq!(db.prepared_statements(), 1);
        let second = db.query_ref(sql).unwrap();
        assert_eq!(db.prepared_statements(), 1, "second run must hit the cache");
        assert_eq!(first, second);
        // A different statement adds an entry.
        db.query_ref("select id from memberships where name = 'Compute'").unwrap();
        assert_eq!(db.prepared_statements(), 2);
    }

    #[test]
    fn plan_cached_probe_is_pure() {
        let mut db = two_table_db();
        let sql = "select name from nodes where ip = '10.1.1.2'";
        assert!(!db.plan_cached(sql), "cold cache");
        assert_eq!(db.prepared_statements(), 0, "probe must not populate");

        db.query_ref(sql).unwrap();
        assert!(db.plan_cached(sql));
        let hits = db.stats().plan_cache_hits();
        let misses = db.stats().plan_cache_misses();
        for _ in 0..5 {
            db.plan_cached(sql);
        }
        assert_eq!(db.stats().plan_cache_hits(), hits, "probes are free");
        assert_eq!(db.stats().plan_cache_misses(), misses);

        // A schema change makes every cached plan cold — the probe sees
        // it without flushing the (stale) entries itself.
        db.execute("create table extra (x int)").unwrap();
        assert!(!db.plan_cached(sql));
        assert_eq!(db.prepared_statements(), 1, "probe must not flush");
        db.query_ref(sql).unwrap();
        assert!(db.plan_cached(sql), "re-prepared after the flush");
    }

    #[test]
    fn schema_change_flushes_plan_cache() {
        let mut db = two_table_db();
        db.query_ref("select name from nodes where id = 1").unwrap();
        assert_eq!(db.prepared_statements(), 1);
        db.execute("create table extra (x int)").unwrap();
        // The stale entry is discarded on next use, and the query still
        // answers correctly against the new schema generation.
        let r = db.query_ref("select name from nodes where id = 1").unwrap();
        assert_eq!(r.rows[0][0].as_text(), Some("frontend-0"));
        assert_eq!(db.prepared_statements(), 1);
    }

    /// One-off statements past the cap cycle through the free slots; the
    /// statements in use stay. When a full cache flushed every entry,
    /// each 128 one-offs on top of 384 pooled texts cost 384 re-plans.
    #[test]
    fn a_full_plan_cache_keeps_the_statements_in_use() {
        let db = two_table_db();
        let pooled: Vec<String> =
            (0..384).map(|i| format!("select name from nodes where id = {i}")).collect();
        for sql in &pooled {
            db.query_ref(sql).unwrap();
        }
        let mut pooled_misses = 0;
        for block in 0..100 {
            for i in 0..100 {
                db.query_ref(&format!("select name from nodes where ip = '10.0.{block}.{i}'"))
                    .unwrap();
            }
            let misses = db.stats().plan_cache_misses();
            for sql in &pooled {
                db.query_ref(sql).unwrap();
            }
            pooled_misses += db.stats().plan_cache_misses() - misses;
            assert!(db.prepared_statements() <= PLAN_CACHE_CAP);
        }
        assert_eq!(pooled_misses, 0, "pooled statements re-planned past the 10,000 one-offs");
        assert_eq!(db.stats().plan_cache_misses(), 384 + 10_000);
    }

    #[test]
    fn a_full_plan_cache_all_in_use_starts_over() {
        let db = two_table_db();
        let sql = |i: usize| format!("select name from nodes where id = {i}");
        for i in 0..PLAN_CACHE_CAP {
            db.query_ref(&sql(i)).unwrap();
            db.query_ref(&sql(i)).unwrap();
        }
        assert_eq!(db.prepared_statements(), PLAN_CACHE_CAP);
        db.query_ref(&sql(PLAN_CACHE_CAP)).unwrap();
        assert_eq!(db.prepared_statements(), 1, "nothing to drop: the sweep clears all");
    }

    #[test]
    fn cached_plan_survives_row_changes() {
        let mut db = two_table_db();
        let sql = "select name from nodes where membership = 2";
        assert_eq!(db.query_ref(sql).unwrap().rows.len(), 2);
        db.execute("insert into nodes values (4, 'compute-0-2', 2, '10.1.1.4')").unwrap();
        assert_eq!(db.query_ref(sql).unwrap().rows.len(), 3, "cached plan must see new rows");
        db.execute("delete from nodes where membership = 2").unwrap();
        assert_eq!(db.query_ref(sql).unwrap().rows.len(), 0);
    }

    #[test]
    fn clone_starts_with_cold_cache() {
        let db = two_table_db();
        db.query_ref("select name from nodes where id = 1").unwrap();
        let copy = db.clone();
        assert_eq!(copy.prepared_statements(), 0);
        // And the clone still answers (and re-caches) independently.
        assert_eq!(copy.query_ref("select name from nodes where id = 1").unwrap().rows.len(), 1);
    }

    #[test]
    fn query_stats_track_cache_decisions_and_rows() {
        let mut db = two_table_db();
        let registry = Registry::new();
        db.bind_stats_registry(&registry);
        let sql = "select name from nodes where ip = '10.1.1.2'";
        db.query_ref(sql).unwrap();
        db.query_ref(sql).unwrap();
        let s = db.stats();
        assert_eq!(s.plan_cache_misses(), 1);
        assert_eq!(s.plan_cache_hits(), 1);
        // On a 3-row table the cost model keeps the point lookup on the
        // scan path — a cold index build cannot pay off at that size.
        assert_eq!(s.scan_executions(), 2);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("sql.opt.plans_costed"),
            1,
            "the miss costed a plan; the hit reused it"
        );
        assert_eq!(s.rows_returned(), 2);
        assert!(s.rows_examined() >= 2);
        // Estimate telemetry saw both executions of the costed plan.
        assert_eq!(snap.histograms["sql.opt.est_actual_pct"].count, 2);
        // The scan baseline records a scan execution too.
        db.query_ref_scan(sql).unwrap();
        assert_eq!(s.scan_executions(), 3);
        // And the SQL-free fast path counts as a lookup.
        db.lookup_eq("nodes", "ip", &Value::Text("10.1.1.2".into())).unwrap();
        // Registry view agrees with the typed getters: one source of truth.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sql.lookup_eq"), 1);
        assert_eq!(snap.counter("sql.plan.cache_hits"), s.plan_cache_hits());
        assert_eq!(snap.counter("sql.rows.examined"), s.rows_examined());
    }

    /// `lookup_eq` borrows exactly the rows of the equivalent `SELECT *`.
    fn assert_lookup_is_select(db: &Database, table: &str, column: &str, value: Value, sql: &str) {
        let direct = db.lookup_eq(table, column, &value).unwrap();
        let via_sql =
            db.query_ref(&format!("select * from {table} where {column} = {sql}")).unwrap();
        let via_sql: Vec<&[Value]> = via_sql.rows.iter().map(Vec::as_slice).collect();
        assert_eq!(direct, via_sql, "{table}.{column} = {sql}");
    }

    /// Integer-shaped text spelled three ways in a TEXT column, and an INT
    /// column holding the same number, so probes cross the coercion.
    fn coercion_db() -> Database {
        let mut db = two_table_db();
        db.execute("create table t (id int, c text, n int)").unwrap();
        db.execute(
            "insert into t values (1, '5', 5), (2, '05', 5), (3, ' 5', NULL), (4, 'x', 6), \
             (5, NULL, 5), (6, '5', 7)",
        )
        .unwrap();
        db
    }

    #[test]
    fn lookup_eq_matches_sql() {
        let db = coercion_db();
        assert_lookup_is_select(&db, "nodes", "ip", Value::Text("10.1.1.2".into()), "'10.1.1.2'");
        // Int keys, multiple hits, preserving row order.
        assert_lookup_is_select(&db, "nodes", "membership", Value::Int(2), "2");
        // Int ↔ Text coercion: `5` meets every spelling of five, each
        // spelling as text only itself.
        for (value, sql) in [
            (Value::Int(5), "5"),
            (Value::Text("5".into()), "'5'"),
            (Value::Text("05".into()), "'05'"),
            (Value::Text(" 5".into()), "' 5'"),
        ] {
            assert_lookup_is_select(&db, "t", "c", value.clone(), sql);
            assert_lookup_is_select(&db, "t", "n", value, sql);
        }
        assert_eq!(db.lookup_eq("t", "c", &Value::Int(5)).unwrap().len(), 4);
        // Misses and NULL probes return empty, not errors.
        assert!(db.lookup_eq("nodes", "ip", &Value::Text("none".into())).unwrap().is_empty());
        assert!(db.lookup_eq("nodes", "ip", &Value::Null).unwrap().is_empty());
        assert!(db.lookup_eq("t", "c", &Value::Null).unwrap().is_empty());
        // Table and column names are case-insensitive.
        let ip = Value::Text("10.1.1.3".into());
        assert_eq!(db.lookup_eq("NODES", "IP", &ip), db.lookup_eq("nodes", "ip", &ip));
        assert_eq!(
            db.lookup_eq("Nodes", "Ip", &ip).unwrap()[0][1],
            Value::Text("compute-0-1".into())
        );
        // Errors mirror SQL's.
        assert_eq!(
            db.lookup_eq("ghost", "x", &Value::Int(1)),
            Err(SqlError::NoSuchTable("ghost".into()))
        );
        assert_eq!(
            db.lookup_eq("NODES", "ghost", &Value::Int(1)),
            Err(SqlError::NoSuchColumn("nodes.ghost".into()))
        );
    }

    /// The counters a fixed probe list moves: pinned where `lookup_eq`
    /// still cloned its rows into a `QueryResult`, so borrowing them moved
    /// none of the three.
    #[test]
    fn lookup_eq_counters_over_a_fixed_probe_list() {
        let mut db = coercion_db();
        let registry = Registry::new();
        db.bind_stats_registry(&registry);
        let probes = [
            ("nodes", "ip", Value::Text("10.1.1.2".into())),
            ("nodes", "membership", Value::Int(2)),
            ("NODES", "IP", Value::Text("10.1.1.9".into())),
            ("t", "c", Value::Int(5)),
            ("t", "c", Value::Text("5".into())),
            ("t", "c", Value::Text("05".into())),
            ("t", "n", Value::Text(" 5".into())),
            ("t", "c", Value::Null),
            ("ghost", "x", Value::Int(1)),
            ("t", "ghost", Value::Int(1)),
        ];
        for (table, column, value) in &probes {
            let _ = db.lookup_eq(table, column, value);
        }
        let snap = registry.snapshot();
        let counts = ["sql.lookup_eq", "sql.rows.examined", "sql.rows.returned"]
            .map(|name| snap.counter(name));
        assert_eq!(counts, [8, 18, 13], "[lookups, rows examined, rows returned]");
    }
}
