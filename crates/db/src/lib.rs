#![warn(missing_docs)]

//! The Rocks cluster database (paper §6.4).
//!
//! "Rocks clusters use a MySQL database for site configuration. The two
//! key tables we provide are, 1) a site-specific configuration table and,
//! 2) a nodes table. From these tables we generate the /etc/hosts,
//! /etc/dhcpd.conf, and PBS configuration files."
//!
//! This crate layers the Rocks schema and tooling over the [`rocks_sql`]
//! engine. There is one store: a [`rocks_sql::DurableDatabase`] whose
//! journal is optional. [`ClusterDb::new`] builds it without one,
//! [`ClusterDb::open_durable`] with one, and transactions, statement
//! execution and the revision counter are the engine's in both.
//!
//! * [`ClusterDb`] — a typed facade over the SQL tables, while still
//!   accepting raw SQL for the `--query` interface; it creates and seeds
//!   the `nodes`, `memberships`, `appliances`, and `app_globals` tables
//!   (Tables II and III), whose rows are [`NodeRecord`] and
//!   [`Membership`],
//! * [`insert_ethers`] — the discovery tool that watches DHCP requests,
//!   names new nodes, allocates addresses, and refreshes reports,
//! * [`reports`] — the generated service configuration files
//!   (`/etc/hosts`, `/etc/dhcpd.conf`, the PBS nodes file),
//! * [`Ipv4`] — small IPv4 helpers for address allocation.
//!
//! `insert_ethers` and `reports` are namespaces callers spell out; every
//! other item is named here, in `lib.rs`, and its module is private.

pub mod insert_ethers;
mod ip;
pub mod reports;
mod schema;

pub use insert_ethers::{DhcpRequest, InsertEthers};
pub use ip::Ipv4;
pub use schema::{Membership, NodeRecord};

use std::borrow::Cow;
use std::rc::Rc;

use reports::GeneratedReports;
use rocks_sql::{Database, DurableDatabase, DurableError, RecoveryReport, SqlError, Value, Vfs};
use rocks_trace::{Registry, Tracer};

/// Errors from cluster-database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Underlying SQL failure.
    Sql(SqlError),
    /// Storage-engine failure: transaction misuse, or (durable mode
    /// only) disk and recovery.
    Storage(DurableError),
    /// Unknown membership id or name.
    NoSuchMembership(String),
    /// Duplicate MAC address registration.
    DuplicateMac(String),
    /// Address pool exhausted.
    NoFreeAddress,
    /// Node lookup failed.
    NoSuchNode(String),
}

impl From<SqlError> for DbError {
    fn from(e: SqlError) -> Self {
        DbError::Sql(e)
    }
}

impl From<DurableError> for DbError {
    fn from(e: DurableError) -> Self {
        // Plain statement failures surface identically in both modes.
        match e {
            DurableError::Sql(e) => DbError::Sql(e),
            other => DbError::Storage(other),
        }
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Sql(e) => write!(f, "sql: {e}"),
            DbError::Storage(e) => write!(f, "storage: {e}"),
            DbError::NoSuchMembership(m) => write!(f, "no such membership: {m}"),
            DbError::DuplicateMac(m) => write!(f, "MAC already registered: {m}"),
            DbError::NoFreeAddress => write!(f, "no free IP address in the cluster network"),
            DbError::NoSuchNode(n) => write!(f, "no such node: {n}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, DbError>;

/// The cluster database: the Rocks schema in a [`DurableDatabase`]
/// engine (journaled or not), plus typed accessors.
///
/// Every mutation bumps a monotonically increasing [`revision`]
/// counter. The state insert-ethers derives from the rows (reports, last
/// node id, free-address cursor) is stamped with it, so a
/// `nodes`/`memberships` write — or any statement issued through
/// [`execute_raw`] — stales that state automatically. (The Kickstart
/// generation service caches nothing read from the database, so it
/// ignores the revision.)
///
/// [`revision`]: Self::revision
/// [`execute_raw`]: Self::execute_raw
#[derive(Debug)]
pub struct ClusterDb {
    db: DurableDatabase,
    /// Built on first read, folded by an appending
    /// [`add_node`](Self::add_node), stale after any other write.
    derived: Option<Derived>,
}

/// What insert-ethers needs from the rows, stamped with the revision it
/// reflects: equal revisions guarantee identical contents, so an equal
/// stamp means current and anything else means rebuild.
#[derive(Debug, Clone)]
struct Derived {
    revision: u64,
    /// Shared between clones until one of them folds.
    reports: Rc<GeneratedReports>,
    /// Highest node id, 0 without nodes.
    last_id: i64,
    /// Highest free address at or below [`Ipv4::ALLOC_TOP`].
    free_ip: Option<Ipv4>,
}

impl Clone for ClusterDb {
    /// Cloning always yields a *detached in-memory* database with the
    /// same contents and revision: simulation fan-out wants cheap
    /// independent copies, never two writers of one WAL.
    fn clone(&self) -> Self {
        ClusterDb {
            db: DurableDatabase::in_memory(self.sql_ref().clone(), self.revision()),
            derived: self.derived.clone(),
        }
    }
}

impl Default for ClusterDb {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterDb {
    /// Create a database with the Rocks schema and the default
    /// memberships of Table III.
    pub fn new() -> Self {
        let mut db = Database::new();
        schema::create_schema(&mut db);
        ClusterDb { db: DurableDatabase::in_memory(db, 0), derived: None }
    }

    /// Open (or create) a durable cluster database on `vfs`. A fresh
    /// store is seeded with the Rocks schema in one transaction; an
    /// existing one is recovered — revision counter included — from its
    /// snapshot and log.
    pub fn open_durable(vfs: &dyn Vfs) -> Result<Self> {
        Self::open_durable_with_tracer(vfs, Tracer::disabled())
    }

    /// [`open_durable`](Self::open_durable) with storage telemetry
    /// flowing into `tracer`.
    pub fn open_durable_with_tracer(vfs: &dyn Vfs, tracer: Tracer) -> Result<Self> {
        let mut cluster =
            ClusterDb { db: DurableDatabase::open_with_tracer(vfs, tracer)?, derived: None };
        if cluster.db.seq() == 0 && cluster.sql_ref().table_names().is_empty() {
            cluster.atomically(&schema::schema_statements())?;
        }
        Ok(cluster)
    }

    /// True when backed by a journal: state survives a restart (or
    /// crash) of the frontend.
    pub fn is_durable(&self) -> bool {
        self.db.is_journaled()
    }

    /// What open-time recovery found and did (durable mode only).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.is_durable().then(|| self.db.recovery_report())
    }

    /// Force a checkpoint (durable mode; nothing to do in memory mode).
    /// Refused inside a transaction.
    pub fn checkpoint(&mut self) -> Result<()> {
        Ok(self.db.checkpoint()?)
    }

    /// Route all query/storage counters into `registry`. Not a write:
    /// the revision is untouched.
    pub fn bind_stats_registry(&mut self, registry: &Registry) {
        self.db.bind_stats_registry(registry);
    }

    /// Execute one raw SQL write, bumping the revision — first, so a
    /// durable commit journals the post-write revision. For tools that
    /// issue statement text.
    pub fn execute_raw(&mut self, sql: &str) -> Result<()> {
        self.db.bump_revision();
        self.db.execute(sql)?;
        Ok(())
    }

    /// Run `stmts` as one unit: inside the open transaction if there is
    /// one, else inside its own, rolled back if any of them fails.
    fn atomically(&mut self, stmts: &[String]) -> Result<()> {
        let own = !self.db.in_txn();
        if own {
            self.db.begin()?;
        }
        let done = stmts.iter().try_for_each(|stmt| self.db.execute(stmt).map(drop));
        if own && done.is_ok() {
            self.db.commit()?;
        } else if own {
            self.db.rollback()?;
        }
        Ok(done?)
    }

    /// Open an explicit transaction. Writes until
    /// [`commit_txn`](Self::commit_txn) apply (and, in durable mode,
    /// become durable) together; [`rollback_txn`](Self::rollback_txn)
    /// undoes all of them.
    pub fn begin_txn(&mut self) -> Result<()> {
        Ok(self.db.begin()?)
    }

    /// Commit the open transaction.
    pub fn commit_txn(&mut self) -> Result<()> {
        Ok(self.db.commit()?)
    }

    /// Roll the open transaction back. The database contents return to
    /// their pre-transaction state, but the revision moves strictly
    /// *forward* past every provisional value handed out inside the
    /// transaction — derived state may have been stamped with those
    /// revisions against rolled-back contents, and a revision that never
    /// repeats is what keeps such stamps stale forever.
    pub fn rollback_txn(&mut self) -> Result<()> {
        self.db.rollback()?;
        self.db.bump_revision();
        Ok(())
    }

    /// True while an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.db.in_txn()
    }

    /// The mutation counter. Strictly increases on every write (typed or
    /// raw); equal revisions guarantee identical database contents, which
    /// is the contract insert-ethers' derived state relies on.
    pub fn revision(&self) -> u64 {
        self.db.revision()
    }

    /// Shared read-only SQL access: `SELECT` only, callable from any
    /// number of threads at once, never bumps the revision. This is the
    /// read path the serving frontend's report queries use.
    pub fn sql_ref(&self) -> &Database {
        self.db.reader()
    }

    /// Run a query and return the first column as strings: the exact
    /// contract of the `--query` flag in §6.4. Read-only — shareable
    /// across threads.
    pub fn query_names(&self, sql: &str) -> Result<Vec<String>> {
        Ok(self.sql_ref().query_column_ref(sql)?)
    }

    /// Register a membership (appliance class) and return its id.
    pub fn add_membership(&mut self, m: &Membership) -> Result<()> {
        self.execute_raw(&format!(
            "insert into memberships values ({}, '{}', {}, '{}', '{}')",
            m.id,
            sql_escape(&m.name),
            m.appliance,
            if m.compute { "yes" } else { "no" },
            sql_escape(&m.basename),
        ))?;
        Ok(())
    }

    /// Look up a membership by id. Read-only: an indexed point lookup
    /// through [`rocks_sql::Database::lookup_eq`], no SQL text involved;
    /// the one row it borrows is rendered into the record once.
    pub fn membership(&self, id: i64) -> Result<Membership> {
        self.membership_row(id).map(Membership::from_row)
    }

    /// The first `table` row whose `column` equals `key`, borrowed.
    fn first_row(&self, table: &str, column: &str, key: &Value) -> Result<Option<&[Value]>> {
        Ok(self.sql_ref().lookup_eq(table, column, key)?.first().copied())
    }

    /// The `memberships` row with `id`, borrowed.
    fn membership_row(&self, id: i64) -> Result<&[Value]> {
        self.first_row("memberships", "id", &Value::Int(id))?
            .ok_or_else(|| DbError::NoSuchMembership(id.to_string()))
    }

    /// The `nodes` row holding `ip`, borrowed.
    fn node_row_by_ip(&self, ip: &str) -> Result<&[Value]> {
        self.first_row("nodes", "ip", &Value::Text(ip.to_string()))?
            .ok_or_else(|| DbError::NoSuchNode(ip.to_string()))
    }

    /// The graph root of `appliance`, borrowed; `None` when the appliance
    /// is unknown or its `graph_node` is empty.
    fn graph_root(&self, appliance: i64) -> Result<Option<Cow<'_, str>>> {
        let row = self.first_row("appliances", "id", &Value::Int(appliance))?;
        // Column 2 is `graph_node`; empty means "tracked, not kickstartable".
        Ok(row.map(|r| r[2].rendered()).filter(|root| !root.is_empty()))
    }

    /// What the §6.1 CGI resolves for the node at `ip` — node →
    /// membership → appliance — borrowed from the tables: names are
    /// rendered exactly as [`node_by_ip`](Self::node_by_ip),
    /// [`membership`](Self::membership) and
    /// [`appliance_root`](Self::appliance_root) render them, text cells
    /// without a copy. Three index probes; the same errors as that chain
    /// (`NoSuchNode`, then `NoSuchMembership`). Read-only.
    pub fn requester(&self, ip: &str) -> Result<Requester<'_>> {
        let node = self.node_row_by_ip(ip)?;
        // Column 3 is `membership`, as `NodeRecord::from_row` reads it.
        let membership = self.membership_row(node[3].as_int().unwrap_or(0))?;
        let appliance = membership[2].as_int().unwrap_or(0);
        Ok(Requester {
            name: node[2].rendered(),
            membership: membership[1].rendered(),
            appliance,
            root: self.graph_root(appliance)?,
        })
    }

    /// Look up a membership by (case-insensitive) name. Read-only.
    pub fn membership_by_name(&self, name: &str) -> Result<Membership> {
        let result = self.sql_ref().query_ref("select * from memberships")?;
        result
            .rows
            .iter()
            .map(|r| Membership::from_row(r))
            .find(|m| m.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::NoSuchMembership(name.to_string()))
    }

    /// All memberships, ordered by id. Read-only.
    pub fn memberships(&self) -> Result<Vec<Membership>> {
        let result = self.sql_ref().query_ref("select * from memberships order by id")?;
        Ok(result.rows.iter().map(|r| Membership::from_row(r)).collect())
    }

    /// Insert a node row exactly as given (used by insert-ethers and by
    /// the Table II reproduction). Rejects duplicate MACs.
    ///
    /// Derived state that is current and sees the row land after every
    /// other one is folded forward: an append costs the row, not the table.
    pub fn add_node(&mut self, node: &NodeRecord) -> Result<()> {
        if self.node_by_mac(&node.mac)?.is_some() {
            return Err(DbError::DuplicateMac(node.mac.clone()));
        }
        let revision = self.revision();
        let fold = self.derived.take().filter(|d| d.revision == revision && node.id > d.last_id);
        let comment = match &node.comment {
            Some(c) => format!("'{}'", sql_escape(c)),
            None => "NULL".to_string(),
        };
        self.execute_raw(&format!(
            "insert into nodes values ({}, '{}', '{}', {}, {}, {}, '{}', {})",
            node.id,
            sql_escape(&node.mac),
            sql_escape(&node.name),
            node.membership,
            node.rack,
            node.rank,
            node.ip,
            comment,
        ))?;
        if let Some(mut d) = fold {
            let compute = self.membership(node.membership).is_ok_and(|m| m.compute);
            Rc::make_mut(&mut d.reports).push_node(node, compute);
            d.last_id = node.id;
            d.free_ip = self.free_ip_from(d.free_ip)?;
            d.revision = self.revision();
            self.derived = Some(d);
        }
        Ok(())
    }

    /// The derived state, rebuilt whole from the rows unless its stamp
    /// is the current revision.
    fn derived(&mut self) -> Result<&Derived> {
        let revision = self.revision();
        if self.derived.as_ref().is_none_or(|d| d.revision != revision) {
            self.derived = Some(Derived {
                revision,
                reports: Rc::new(reports::build(self)?),
                last_id: self.next_node_id()? - 1,
                free_ip: self.free_ip_from(Some(Ipv4::ALLOC_TOP))?,
            });
        }
        Ok(self.derived.as_ref().expect("current or just rebuilt"))
    }

    /// The highest address at or below `top` that is neither held (a
    /// probe of the `nodes.ip` index) nor the frontend's; `None` once the
    /// walk leaves the cluster network.
    fn free_ip_from(&self, top: Option<Ipv4>) -> Result<Option<Ipv4>> {
        let mut candidate = top;
        while let Some(ip) = candidate.filter(|ip| ip.in_network(Ipv4::NETWORK, Ipv4::PREFIX_LEN)) {
            let held = self.first_row("nodes", "ip", &Value::Text(ip.to_string()))?;
            if held.is_none() && ip != Ipv4::FRONTEND {
                return Ok(Some(ip));
            }
            candidate = Some(ip.prev());
        }
        Ok(None)
    }

    /// The generated service configuration files (§6.4), brought up to
    /// date: no SQL runs when only appends happened since the last call.
    pub fn reports(&mut self) -> Result<&GeneratedReports> {
        Ok(&self.derived()?.reports)
    }

    /// The id and address insert-ethers gives the next discovered node:
    /// one past the highest id, and the highest free address.
    pub fn next_identity(&mut self) -> Result<(i64, Ipv4)> {
        let d = self.derived()?;
        Ok((d.last_id + 1, d.free_ip.ok_or(DbError::NoFreeAddress)?))
    }

    /// All nodes ordered by id. Read-only.
    pub fn nodes(&self) -> Result<Vec<NodeRecord>> {
        let result = self.sql_ref().query_ref("select * from nodes order by id")?;
        Ok(result.rows.iter().map(|r| NodeRecord::from_row(r)).collect())
    }

    /// A node by name. Read-only indexed lookup: the borrowed row is
    /// rendered into the record once.
    pub fn node_by_name(&self, name: &str) -> Result<NodeRecord> {
        let row = self.first_row("nodes", "name", &Value::Text(name.to_string()))?;
        row.map(NodeRecord::from_row).ok_or_else(|| DbError::NoSuchNode(name.to_string()))
    }

    /// A node by its cluster-internal IP address — the lookup that keys
    /// the §6.1 CGI flow ("uses the requesting node's IP address").
    /// Read-only (it takes `&self`), and the hash index on `nodes.ip`
    /// makes each probe O(1) instead of a table scan per request. The
    /// kickstart request path itself reads its three names through
    /// [`requester`](Self::requester) instead.
    pub fn node_by_ip(&self, ip: &str) -> Result<NodeRecord> {
        self.node_row_by_ip(ip).map(NodeRecord::from_row)
    }

    /// A node by MAC address, or `None` when the MAC is unknown.
    /// Read-only — this is the insert-ethers "have we seen this host?"
    /// probe, which must not bump the revision (a rebooting installed
    /// node would otherwise stale the derived reports).
    pub fn node_by_mac(&self, mac: &str) -> Result<Option<NodeRecord>> {
        Ok(self.first_row("nodes", "mac", &Value::Text(mac.to_string()))?.map(NodeRecord::from_row))
    }

    /// The graph root (appliance name) that kickstarts `appliance`, or
    /// `None` when the appliance is tracked but not kickstartable
    /// (switches, PDUs). Read-only; an owned copy of what
    /// [`requester`](Self::requester) borrows.
    pub fn appliance_root(&self, appliance: i64) -> Result<Option<String>> {
        Ok(self.graph_root(appliance)?.map(Cow::into_owned))
    }

    /// Nodes whose membership is flagged `compute = 'yes'` — the join the
    /// paper demonstrates (§6.4). Read-only.
    pub fn compute_nodes(&self) -> Result<Vec<NodeRecord>> {
        let result = self.sql_ref().query_ref(
            "select nodes.id, nodes.mac, nodes.name, nodes.membership, nodes.rack, \
             nodes.rank, nodes.ip, nodes.comment \
             from nodes, memberships \
             where nodes.membership = memberships.id and memberships.compute = 'yes' \
             order by nodes.id",
        )?;
        Ok(result.rows.iter().map(|r| NodeRecord::from_row(r)).collect())
    }

    /// Next unused node id. Read-only.
    pub fn next_node_id(&self) -> Result<i64> {
        let result = self.sql_ref().query_ref("select max(id) from nodes")?;
        Ok(match result.rows[0][0] {
            Value::Int(n) => n + 1,
            _ => 1,
        })
    }

    /// Highest rank already used in `(membership, rack)`, or None.
    /// Read-only.
    pub fn max_rank(&self, membership: i64, rack: i64) -> Result<Option<i64>> {
        let result = self.sql_ref().query_ref(&format!(
            "select max(rank) from nodes where membership = {membership} and rack = {rack}"
        ))?;
        Ok(result.rows[0][0].as_int())
    }

    /// Set a site-global key (the "site-specific configuration table").
    /// The delete + insert pair is one logical write: it runs inside a
    /// transaction (its own when none is open), so neither a crash nor a
    /// failing insert can leave the key half-set.
    pub fn set_global(&mut self, key: &str, value: &str) -> Result<()> {
        let delete = format!("delete from app_globals where name = '{}'", sql_escape(key));
        let insert = format!(
            "insert into app_globals values ('{}', '{}')",
            sql_escape(key),
            sql_escape(value)
        );
        self.db.bump_revision();
        self.atomically(&[delete, insert])
    }

    /// Read a site-global key. Read-only indexed lookup: only the value
    /// cell is copied out.
    pub fn global(&self, key: &str) -> Result<Option<String>> {
        let row = self.first_row("app_globals", "name", &Value::Text(key.to_string()))?;
        // Column 1 is `value`.
        Ok(row.map(|r| r[1].render()))
    }

    /// Every kickstartable node, fully resolved for mass generation and
    /// sorted by name: the bulk form of the three per-node queries the
    /// §6.1 CGI path would issue. Nodes whose appliance has no graph root
    /// (switches, PDUs) are skipped — they never request a kickstart.
    /// Read-only. Projects only the three node columns a target needs and
    /// moves their cells into it; the address is normalized as
    /// [`NodeRecord::ip`] reads it.
    pub fn kickstart_targets(&self) -> Result<Vec<KickstartTarget>> {
        let mut roots: std::collections::HashMap<i64, (String, Option<String>)> =
            std::collections::HashMap::new();
        for membership in self.memberships()? {
            let root = self.appliance_root(membership.appliance)?;
            roots.insert(membership.id, (membership.name, root));
        }
        let nodes = self.sql_ref().query_ref("select name, ip, membership from nodes")?;
        let mut targets = Vec::with_capacity(nodes.rows.len());
        for row in nodes.rows {
            let [name, ip, membership_id] = <[Value; 3]>::try_from(row).expect("three columns");
            let Some((membership, Some(root))) = roots.get(&membership_id.as_int().unwrap_or(0))
            else {
                continue;
            };
            targets.push(KickstartTarget {
                name: name.into_rendered(),
                ip: ip.as_text().and_then(Ipv4::parse).unwrap_or(Ipv4::NETWORK).to_string(),
                root: root.clone(),
                membership: membership.clone(),
            });
        }
        targets.sort();
        Ok(targets)
    }
}

/// What the §6.1 CGI resolves for one requesting address, borrowed from
/// the cluster database by [`ClusterDb::requester`]. A name is a
/// [`Cow`] because it is rendered as [`Value::render`] would: a text cell
/// is borrowed, anything else (a NULL renders `NULL`) is owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requester<'a> {
    /// The node's name (`compute-0-0`, ...).
    pub name: Cow<'a, str>,
    /// The name of the node's membership.
    pub membership: Cow<'a, str>,
    /// The membership's appliance id.
    pub appliance: i64,
    /// The appliance's graph root; `None` when the appliance is unknown or
    /// not kickstartable.
    pub root: Option<Cow<'a, str>>,
}

/// One kickstartable node as resolved by
/// [`ClusterDb::kickstart_targets`]: everything the generation service
/// needs to produce its profile without touching SQL again.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct KickstartTarget {
    /// Node hostname (`compute-0-0`, ...).
    pub name: String,
    /// The node's private address, rendered.
    pub ip: String,
    /// Graph root (appliance name) whose traversal builds the skeleton.
    pub root: String,
    /// Membership name, for per-node localization.
    pub membership: String,
}

/// Escape a string for inclusion in a single-quoted SQL literal.
pub fn sql_escape(s: &str) -> String {
    s.replace('\'', "''")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_seeds_table_iii_memberships() {
        let db = ClusterDb::new();
        let ms = db.memberships().unwrap();
        assert_eq!(ms.len(), schema::DEFAULT_MEMBERSHIPS.len());
        let compute = db.membership_by_name("Compute").unwrap();
        assert_eq!(compute.id, 2);
        assert!(compute.compute);
        let frontend = db.membership_by_name("Frontend").unwrap();
        assert!(!frontend.compute);
    }

    #[test]
    fn duplicate_mac_rejected() {
        let mut db = ClusterDb::new();
        let node = NodeRecord::new(
            1,
            "00:50:8b:e0:3a:a7",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 245),
        );
        db.add_node(&node).unwrap();
        let err = db.add_node(&node).unwrap_err();
        assert!(matches!(err, DbError::DuplicateMac(_)));
    }

    #[test]
    fn compute_nodes_join() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "frontend-0",
            1,
            0,
            0,
            Ipv4::new(10, 1, 1, 1),
        ))
        .unwrap();
        db.add_node(&NodeRecord::new(
            2,
            "aa:00:00:00:00:02",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        db.add_node(&NodeRecord::new(
            3,
            "aa:00:00:00:00:03",
            "compute-0-1",
            2,
            0,
            1,
            Ipv4::new(10, 255, 255, 253),
        ))
        .unwrap();
        let compute = db.compute_nodes().unwrap();
        assert_eq!(compute.len(), 2);
        assert!(compute.iter().all(|n| n.name.starts_with("compute-")));
    }

    #[test]
    fn globals_round_trip() {
        let mut db = ClusterDb::new();
        assert_eq!(db.global("Kickstart_PublicHostname").unwrap(), None);
        db.set_global("Kickstart_PublicHostname", "frontend.sdsc.edu").unwrap();
        assert_eq!(
            db.global("Kickstart_PublicHostname").unwrap().as_deref(),
            Some("frontend.sdsc.edu")
        );
        db.set_global("Kickstart_PublicHostname", "other.edu").unwrap();
        assert_eq!(db.global("Kickstart_PublicHostname").unwrap().as_deref(), Some("other.edu"));
    }

    #[test]
    fn next_id_and_max_rank() {
        let mut db = ClusterDb::new();
        assert_eq!(db.next_node_id().unwrap(), 1);
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        assert_eq!(db.next_node_id().unwrap(), 2);
        assert_eq!(db.max_rank(2, 0).unwrap(), Some(0));
        assert_eq!(db.max_rank(2, 1).unwrap(), None);
    }

    #[test]
    fn revision_tracks_writes_not_reads() {
        let mut db = ClusterDb::new();
        let r0 = db.revision();
        let _ = db.nodes().unwrap();
        let _ = db.memberships().unwrap();
        let _ = db.global("Kickstart_PublicHostname").unwrap();
        let _ = db.query_names("select name from nodes").unwrap();
        assert_eq!(db.revision(), r0, "reads must not invalidate caches");

        db.set_global("k", "v").unwrap();
        let r1 = db.revision();
        assert!(r1 > r0);
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        let r2 = db.revision();
        assert!(r2 > r1);
        // Raw statement text may write anything: bumped conservatively,
        // even for a SELECT.
        db.execute_raw("select name from nodes").unwrap();
        assert!(db.revision() > r2);
    }

    #[test]
    fn node_by_ip_resolves_and_rejects() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        assert_eq!(db.node_by_ip("10.255.255.254").unwrap().name, "compute-0-0");
        assert!(matches!(db.node_by_ip("10.9.9.9"), Err(DbError::NoSuchNode(_))));
        assert_eq!(db.appliance_root(2).unwrap().as_deref(), Some("compute"));
        assert_eq!(db.appliance_root(4).unwrap(), None);
        assert_eq!(
            db.requester("10.255.255.254").unwrap(),
            Requester {
                name: Cow::Borrowed("compute-0-0"),
                membership: Cow::Borrowed("Compute"),
                appliance: 2,
                root: Some(Cow::Borrowed("compute")),
            }
        );
        assert_eq!(db.requester("10.9.9.9"), Err(DbError::NoSuchNode("10.9.9.9".into())));
    }

    #[test]
    fn node_by_mac_is_a_read() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        let r = db.revision();
        assert_eq!(db.node_by_mac("aa:00:00:00:00:01").unwrap().unwrap().name, "compute-0-0");
        assert_eq!(db.node_by_mac("aa:00:00:00:00:99").unwrap(), None);
        assert_eq!(db.revision(), r, "MAC probes must not invalidate caches");
    }

    #[test]
    fn kickstart_targets_resolve_and_skip_non_kickstartable() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "frontend-0",
            1,
            0,
            0,
            Ipv4::new(10, 1, 1, 1),
        ))
        .unwrap();
        db.add_node(&NodeRecord::new(
            2,
            "aa:00:00:00:00:02",
            "compute-0-0",
            2,
            0,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        // Membership 4 (Ethernet Switches) has no graph root.
        db.add_node(&NodeRecord::new(
            3,
            "aa:00:00:00:00:03",
            "network-0-0",
            4,
            0,
            0,
            Ipv4::new(10, 255, 1, 1),
        ))
        .unwrap();
        let targets = db.kickstart_targets().unwrap();
        let summary: Vec<(&str, &str, &str)> = targets
            .iter()
            .map(|t| (t.name.as_str(), t.root.as_str(), t.membership.as_str()))
            .collect();
        assert_eq!(
            summary,
            vec![("compute-0-0", "compute", "Compute"), ("frontend-0", "frontend", "Frontend"),]
        );
        assert_eq!(targets[0].ip, "10.255.255.254");
    }

    /// A database whose free-address cursor stands at `top`, as if every
    /// address above it were held.
    fn with_cursor_at(top: Ipv4) -> ClusterDb {
        let mut db = ClusterDb::new();
        db.reports().unwrap();
        db.derived.as_mut().unwrap().free_ip = Some(top);
        db
    }

    fn observe(db: &mut ClusterDb, n: u8) -> Result<Ipv4> {
        let request = DhcpRequest { mac: format!("aa:00:00:00:00:{n:02x}") };
        let record = InsertEthers::start(db, "Compute", 0)?.observe(&request)?;
        Ok(record.expect("a new MAC").ip)
    }

    #[test]
    fn free_address_cursor_skips_the_frontend() {
        // Whether or not the frontend has a row yet.
        let mut db = with_cursor_at(Ipv4::FRONTEND.next());
        assert_eq!(observe(&mut db, 1).unwrap(), Ipv4::new(10, 1, 1, 2));
        assert_eq!(observe(&mut db, 2).unwrap(), Ipv4::new(10, 1, 1, 0));
        assert_eq!(db.free_ip_from(Some(Ipv4::FRONTEND)).unwrap(), Some(Ipv4::new(10, 1, 0, 255)));
    }

    #[test]
    fn exhausted_network_is_an_error_not_a_wrap() {
        let mut db = with_cursor_at(Ipv4::new(10, 0, 0, 1));
        assert_eq!(observe(&mut db, 1).unwrap(), Ipv4::new(10, 0, 0, 1));
        assert_eq!(observe(&mut db, 2).unwrap(), Ipv4::NETWORK);
        assert_eq!(observe(&mut db, 3), Err(DbError::NoFreeAddress));
        assert_eq!(observe(&mut db, 3), Err(DbError::NoFreeAddress), "and stays one");
        assert_eq!(db.nodes().unwrap().len(), 2);
    }

    /// Memory mode rolls back through the same engine as durable mode:
    /// contents return, the revision only moves forward, and the store
    /// is the same store (its counters stay bound where they were).
    #[test]
    fn memory_rollback_restores_contents_and_keeps_the_store() {
        let mut db = ClusterDb::new();
        let registry = Registry::new();
        db.bind_stats_registry(&registry);
        db.set_global("k", "before").unwrap();
        assert!(matches!(db.commit_txn(), Err(DbError::Storage(_))), "nothing to commit");

        db.begin_txn().unwrap();
        assert!(matches!(db.begin_txn(), Err(DbError::Storage(_))), "no nesting");
        db.set_global("k", "provisional").unwrap();
        db.execute_raw("create table scratch (x int)").unwrap();
        let provisional = db.revision();
        db.rollback_txn().unwrap();
        assert!(!db.in_txn());
        assert_eq!(db.global("k").unwrap().as_deref(), Some("before"));
        assert!(db.sql_ref().table("scratch").is_none());
        assert!(db.revision() > provisional);
        let lookups = registry.counter("sql.lookup_eq").get();
        db.global("k").unwrap();
        assert_eq!(registry.counter("sql.lookup_eq").get(), lookups + 1);

        db.begin_txn().unwrap();
        db.set_global("k", "after").unwrap();
        db.commit_txn().unwrap();
        assert_eq!(db.global("k").unwrap().as_deref(), Some("after"));
    }

    #[test]
    fn raw_sql_query_interface() {
        let mut db = ClusterDb::new();
        db.add_node(&NodeRecord::new(
            1,
            "aa:00:00:00:00:01",
            "compute-1-0",
            2,
            1,
            0,
            Ipv4::new(10, 255, 255, 254),
        ))
        .unwrap();
        db.add_node(&NodeRecord::new(
            2,
            "aa:00:00:00:00:02",
            "compute-2-0",
            2,
            2,
            0,
            Ipv4::new(10, 255, 255, 253),
        ))
        .unwrap();
        // §6.4: cluster-kill --query="select name from nodes where rack=1".
        let names = db.query_names("select name from nodes where rack=1").unwrap();
        assert_eq!(names, vec!["compute-1-0"]);
    }
}
