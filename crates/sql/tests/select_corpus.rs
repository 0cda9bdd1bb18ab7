//! Pinned SELECT corpus: about 600 seeded statements over a fixed fixture,
//! each recorded in `tests/golden/select_corpus.txt` as one line
//!
//! ```text
//! <sql> TAB <fnv64 of Debug of query_ref's Result> TAB <rows_examined delta> TAB <rows_returned delta>
//! ```
//!
//! The golden was written by the executor that cloned every examined row
//! at full joined width, before the row-id tuple pipeline replaced it, so
//! it pins the replacement's rows, errors and counters to the code it
//! replaced; the only lines regenerated since are the 23 the GROUP BY
//! membership fix turned, and the two WHERE-less `count(*) from nodes`
//! lines, whose `rows_examined` went 300 → 0 when the count came from the
//! table length (same rows, same hash). Every statement is also diffed
//! across `query_ref`, `query_ref_scan` and `query_ref_config`
//! (heuristic, forced hash, forced merge), and `query_column_ref` against
//! the rendered first column of `query_ref_scan`.
//!
//! The fixture has NULLs in every column ORDER BY does not draw its keys
//! from (the parent's sort panicked on NULL keys, see `exec.rs`'s
//! `order_by_null_keys_sort_first_and_never_panic`), duplicate ids and
//! sort keys, and a text column mixing integer spellings (`'5'`,
//! `'05'`, `' 5'`) that int columns and int literals meet under
//! `Value::sql_cmp`'s coercion. The statements cover every `SelectItem`,
//! one to three FROM tables, WHERE with no filter / an index probe / a
//! scan / a residual / OR / LIKE / IN / IS NULL, ORDER BY on several keys
//! with LIMIT 0, 1, k and past the end, GROUP BY with and without ORDER BY
//! and LIMIT, aggregates over empty and all-NULL sets, and every error
//! kind in every clause.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rocks-sql --test select_corpus
//! ```

use rocks_sql::{Database, JoinAlgo, PlannerConfig, PlannerMode, Value};
use std::path::PathBuf;

/// splitmix64: the corpus must not depend on any RNG crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// The text domain shared by `nodes.tag` and `apps.tag`.
const TAGS: [&str; 9] = ["'5'", "'05'", "' 5'", "'x'", "'compute'", "NULL", "'6'", "'10'", "'-1'"];

/// Columns per table, `true` for INT.
const SCHEMA: [(&str, &[(&str, bool)]); 4] = [
    (
        "nodes",
        &[
            ("id", true),
            ("name", false),
            ("membership", true),
            ("rack", true),
            ("rank", true),
            ("ip", false),
            ("tag", false),
            ("comment", false),
        ],
    ),
    ("memberships", &[("id", true), ("name", false), ("appliance", true), ("compute", false)]),
    ("apps", &[("aid", true), ("tag", false), ("owner", false)]),
    ("spare", &[("x", true), ("tag", false)]),
];

fn columns(table: &str) -> &'static [(&'static str, bool)] {
    SCHEMA.iter().find(|(name, _)| *name == table).expect("fixture table").1
}

/// The NULL-free columns, which ORDER BY draws its keys from.
const SORT_KEYS: [(&str, &str); 9] = [
    ("nodes", "id"),
    ("nodes", "name"),
    ("nodes", "rack"),
    ("nodes", "rank"),
    ("memberships", "id"),
    ("apps", "aid"),
    ("apps", "tag"),
    ("spare", "x"),
    ("spare", "tag"),
];

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute(
        "create table nodes (id int, name text, membership int, rack int, rank int, \
         ip text, tag text, comment text)",
    )
    .unwrap();
    db.execute("create table memberships (id int, name text, appliance int, compute text)")
        .unwrap();
    db.execute("create table apps (aid int, tag text, owner text)").unwrap();
    db.execute("create table spare (x int, tag text)").unwrap();
    let mut rng = Rng(0x5e1e_c7c0);
    for i in 0..300usize {
        let id = if i % 37 == 5 { i } else { i + 1 };
        let (rack, rank) = (i / 32, (i * 7) % 13);
        let null_or = |hole: bool, v: String| if hole { "NULL".to_string() } else { v };
        let name = format!("'compute-{rack}-{rank}'");
        let membership = null_or(i % 41 == 3, [1, 2, 2, 2, 4, 8, 3][i % 7].to_string());
        let ip = null_or(i % 61 == 9, format!("'10.{}.{}.{}'", i / 32, i % 13, i % 5));
        let tag = rng.pick(&TAGS);
        let comment =
            rng.pick(&["'Compute node'", "NULL", "'Gateway machine'", "'it''s here'", "'5'"]);
        db.execute(&format!(
            "insert into nodes values ({id}, {name}, {membership}, {rack}, {rank}, {ip}, \
             {tag}, {comment})"
        ))
        .unwrap();
    }
    db.execute(
        "insert into memberships values (1, 'Frontend', 1, 'no'), (2, 'Compute', 2, 'yes'), \
         (4, 'Ethernet Switches', 4, 'no'), (8, 'Web Server', 3, 'no'), \
         (2, 'Compute', 2, 'yes'), (5, NULL, NULL, NULL), (7, '05', 7, 'yes')",
    )
    .unwrap();
    for i in 0..10 {
        let tag = rng.pick(&TAGS[..5]);
        let owner = rng.pick(&["'root'", "NULL", "'Compute'", "'05'"]);
        db.execute(&format!("insert into apps values ({}, {tag}, {owner})", i % 7)).unwrap();
    }
    db
}

/// A column of `table`, spelled bare or qualified. Bare names in a join
/// are sometimes ambiguous, which is part of the coverage.
fn spell(rng: &mut Rng, from: &[&str], table: &str, column: &str) -> String {
    let qualify = if from.len() == 1 { rng.chance(20) } else { rng.chance(85) };
    if qualify {
        format!("{table}.{column}")
    } else {
        column.to_string()
    }
}

/// A random column of one of the FROM tables: `(table, column, is_int)`.
fn any_column(rng: &mut Rng, from: &[&'static str]) -> (&'static str, &'static str, bool) {
    let table = *rng.pick(from);
    let (column, int) = *rng.pick(columns(table));
    (table, column, int)
}

fn literal(rng: &mut Rng, int: bool) -> String {
    if int && rng.chance(85) {
        return (rng.below(14) as i64 - 1).to_string();
    }
    rng.pick(&[
        "'5'",
        "'05'",
        "' 5'",
        "'x'",
        "'compute'",
        "'6'",
        "'Compute'",
        "'compute-1-3'",
        "'10.2.5.1'",
        "5",
        "2",
        "NULL",
    ])
    .to_string()
}

/// Cross-table equalities the planner can turn into joins.
const EQUIS: [(&str, &str, &str, &str); 6] = [
    ("nodes", "membership", "memberships", "id"),
    ("nodes", "tag", "apps", "tag"),
    ("nodes", "rank", "apps", "tag"),
    ("memberships", "id", "apps", "aid"),
    ("memberships", "appliance", "apps", "aid"),
    ("nodes", "rack", "memberships", "appliance"),
];

/// Cross-table predicates that stay residual.
const RESIDUALS: [(&str, &str, &str, &str, &str); 3] = [
    ("nodes", "rack", "<", "memberships", "id"),
    ("apps", "aid", ">=", "nodes", "rank"),
    ("memberships", "name", "=", "apps", "owner"),
];

fn atom(rng: &mut Rng, from: &[&'static str]) -> String {
    let (table, column, int) = any_column(rng, from);
    let col = spell(rng, from, table, column);
    match rng.below(12) {
        0..=3 => format!("{col} = {}", literal(rng, int)),
        4 => format!("{col} != {}", literal(rng, int)),
        5 => {
            let op = rng.pick(&["<", "<=", ">", ">="]);
            format!("{col} {op} {}", literal(rng, int))
        }
        6 => {
            let not = if rng.chance(30) { " not" } else { "" };
            let pat = rng.pick(&["'compute-1%'", "'%5'", "'_'", "'comp%'", "'%'", "'10.%.1'"]);
            format!("{col}{not} like {pat}")
        }
        7 => {
            let not = if rng.chance(30) { " not" } else { "" };
            let n = 1 + rng.below(3);
            let items: Vec<String> = (0..n).map(|_| literal(rng, int)).collect();
            format!("{col}{not} in ({})", items.join(", "))
        }
        8 => {
            let not = if rng.chance(40) { " not" } else { "" };
            format!("{col} is{not} null")
        }
        9 => rng.pick(&["1 = 1", "1 = 2", "'a' = 'a'"]).to_string(),
        10 => {
            let joinable: Vec<_> =
                RESIDUALS.iter().filter(|r| from.contains(&r.0) && from.contains(&r.3)).collect();
            match joinable.is_empty() {
                true => format!("{col} is not null"),
                false => {
                    let (lt, lc, op, rt, rc) = **rng.pick(&joinable);
                    format!("{} {op} {}", spell(rng, from, lt, lc), spell(rng, from, rt, rc))
                }
            }
        }
        _ => format!("not {col} = {}", literal(rng, int)),
    }
}

fn where_clause(rng: &mut Rng, from: &[&'static str]) -> String {
    let mut conjuncts = Vec::new();
    // Joins mostly join: a planned pipeline, not only the cross product.
    for (lt, lc, rt, rc) in EQUIS {
        if from.contains(&lt) && from.contains(&rt) && rng.chance(70) {
            conjuncts.push(format!("{} = {}", spell(rng, from, lt, lc), spell(rng, from, rt, rc)));
        }
    }
    let atoms = if conjuncts.is_empty() { 1 + rng.below(3) } else { rng.below(3) };
    for _ in 0..atoms {
        let a = atom(rng, from);
        if rng.chance(25) {
            let b = atom(rng, from);
            conjuncts.push(format!("({a} or {b})"));
        } else {
            conjuncts.push(a);
        }
    }
    if conjuncts.is_empty() {
        return String::new();
    }
    format!(" where {}", conjuncts.join(" and "))
}

const FROMS: [&[&str]; 13] = [
    &["nodes"],
    &["nodes"],
    &["nodes"],
    &["memberships"],
    &["apps"],
    &["spare"],
    &["nodes", "memberships"],
    &["nodes", "memberships"],
    &["memberships", "nodes"],
    &["nodes", "apps"],
    &["apps", "memberships"],
    &["nodes", "memberships", "apps"],
    &["apps", "nodes", "memberships"],
];

fn aggregate(rng: &mut Rng, from: &[&'static str]) -> String {
    let (table, column, _) = any_column(rng, from);
    let col = spell(rng, from, table, column);
    match rng.below(4) {
        0 => "count(*)".to_string(),
        1 => format!("min({col})"),
        2 => format!("max({col})"),
        _ => format!("sum({col})"),
    }
}

fn statement(rng: &mut Rng) -> String {
    let from = *rng.pick(&FROMS);
    let mut group_by = Vec::new();
    let items: Vec<String> = match rng.below(10) {
        0 => vec!["*".to_string()],
        1..=4 => (0..1 + rng.below(3))
            .map(|_| {
                let (t, c, _) = any_column(rng, from);
                spell(rng, from, t, c)
            })
            .collect(),
        5 | 6 => (0..1 + rng.below(3)).map(|_| aggregate(rng, from)).collect(),
        _ => {
            // Grouped: keys and projected keys spelled independently, so
            // `rack` meets `nodes.rack`; now and then an ungrouped column.
            let keys: Vec<(&str, &str)> = (0..1 + rng.below(2))
                .map(|_| {
                    let (t, c, _) = any_column(rng, from);
                    (t, c)
                })
                .collect();
            group_by = keys.iter().map(|(t, c)| spell(rng, from, t, c)).collect();
            let mut items = Vec::new();
            for (t, c) in &keys {
                if rng.chance(80) {
                    items.push(spell(rng, from, t, c));
                }
            }
            if rng.chance(10) {
                let (t, c, _) = any_column(rng, from);
                items.push(spell(rng, from, t, c));
            }
            for _ in 0..1 + rng.below(2) {
                items.push(aggregate(rng, from));
            }
            items
        }
    };
    let mut sql = format!("select {} from {}", items.join(", "), from.join(", "));
    if rng.chance(75) {
        sql.push_str(&where_clause(rng, from));
    }
    if !group_by.is_empty() {
        sql.push_str(&format!(" group by {}", group_by.join(", ")));
    }
    if rng.chance(40) {
        let pool: Vec<_> = SORT_KEYS.iter().filter(|(t, _)| from.contains(t)).collect();
        let keys: Vec<String> = (0..1 + rng.below(3))
            .map(|_| {
                let (t, c) = **rng.pick(&pool);
                let dir = *rng.pick(&["", " asc", " desc", " desc"]);
                format!("{}{dir}", spell(rng, from, t, c))
            })
            .collect();
        sql.push_str(&format!(" order by {}", keys.join(", ")));
    }
    if rng.chance(35) {
        let k = match rng.below(5) {
            0 => 0,
            1 => 1,
            2 => 1000,
            _ => 2 + rng.below(20),
        };
        sql.push_str(&format!(" limit {k}"));
    }
    sql
}

/// Hand-picked statements: every error kind in every clause, the GROUP BY
/// spellings, aggregates over empty and all-NULL sets, LIMIT edges.
const PINNED: &[&str] = &[
    // FROM.
    "select id from ghost",
    "select id from nodes, ghost where nodes.id = ghost.id",
    // Lexer and parser.
    "select id from nodes where name = 'unterminated",
    "select id from nodes where id = 1 $",
    "select from nodes",
    "select id from nodes where",
    "select id from nodes limit -1",
    "select id from nodes order by",
    "select id from nodes group rack",
    "select count(id) from nodes",
    "select id from nodes where name like 5",
    "select id from nodes where not",
    "update nodes set rack = 1",
    // Projection.
    "select ghost from nodes",
    "select nodes.ghost from nodes",
    "select ghost.id from nodes",
    "select id from nodes, memberships",
    "select name from nodes, memberships where nodes.membership = memberships.id",
    "select *, count(*) from nodes",
    "select * from spare",
    "select * from nodes, spare",
    "select ghost from spare",
    // WHERE: on every row, on some rows, on no rows.
    "select id from nodes where ghost = 1",
    "select id from nodes where id = 17 and ghost = 1",
    "select id from nodes where id = 17 or ghost = 1",
    "select id from nodes, memberships where name = 'x'",
    "select x from spare where ghost = 1",
    "select nodes.id from nodes, memberships where nodes.membership = memberships.id and ghost = 1",
    // ORDER BY.
    "select id from nodes order by ghost",
    "select nodes.id from nodes, memberships order by id",
    "select id from spare order by ghost",
    "select count(*) from nodes order by ghost",
    // GROUP BY keys and membership.
    "select ghost, count(*) from nodes group by ghost",
    "select rack, count(*) from nodes group by ghost",
    "select name, count(*) from nodes, memberships group by name",
    "select name, count(*) from nodes group by rack",
    "select name, count(*) from nodes",
    "select * from nodes group by rack",
    "select rack, count(*) from nodes group by nodes.rack",
    "select nodes.rack, count(*) from nodes group by rack",
    "select RACK, count(*) from nodes group by rack",
    "select rack, count(*) from nodes group by NODES.RACK order by rack",
    "select name, count(*) from memberships group by memberships.name",
    "select memberships.name, count(*) from nodes, memberships \
     where nodes.membership = memberships.id group by memberships.name order by memberships.name",
    "select name, count(*) from nodes, memberships \
     where nodes.membership = memberships.id group by memberships.name",
    "select membership, count(*) from nodes, memberships \
     where nodes.membership = memberships.id group by nodes.membership",
    "select memberships.id, count(*) from nodes, memberships \
     where nodes.membership = memberships.id group by nodes.membership",
    "select ghost.rack, count(*) from nodes group by rack",
    "select ghost.rack, count(*) from nodes where 1 = 2 group by rack",
    "select rack, count(*) from nodes group by rack, rank order by rack limit 5",
    "select rack, min(ghost) from nodes group by rack",
    "select rack, min(ghost) from nodes where 1 = 2 group by rack",
    // Aggregates.
    "select min(ghost) from nodes",
    "select count(*), max(ghost) from spare",
    "select count(*), min(x), max(x), sum(x) from spare",
    "select count(*), min(rank), max(rank), sum(rank) from nodes where 1 = 2",
    "select max(comment), min(comment), sum(comment), count(*) from nodes where comment is null",
    "select sum(name), sum(tag), sum(ip) from nodes",
    "select min(tag), max(tag) from nodes",
    "select count(*) from nodes",
    "select count(*) from nodes, memberships, apps",
    "select count(*) from nodes, spare",
    "select rack, count(*) from spare group by rack",
    "select x, count(*) from spare group by x",
    "select count(*) from nodes limit 0",
    "select rack, count(*) from nodes group by rack limit 0",
    // LIMIT edges and ties.
    "select id, rank from nodes order by rank limit 0",
    "select id, rank from nodes order by rank limit 1",
    "select id, rank from nodes order by rank limit 299",
    "select id, rank from nodes order by rank limit 300",
    "select id, rank from nodes order by rank limit 301",
    "select id, rank from nodes order by rank desc, rack limit 17",
    "select id from nodes limit 0",
    "select id from nodes limit 5",
    "select id from nodes limit 100000",
    // Mixed Int/Text cells.
    "select id, tag from nodes where tag = 5",
    "select id, tag from nodes where tag = '5'",
    "select id, tag from nodes where tag = ' 5'",
    "select id, tag from nodes where tag = '05' order by id desc",
    "select id from nodes where id = '05'",
    "select id, tag from nodes where tag is not null order by id desc limit 20",
    "select nodes.id, apps.aid from nodes, apps where nodes.rank = apps.tag order by apps.tag",
    "select nodes.id, apps.aid from nodes, apps where nodes.tag = apps.tag",
    // The paper's own statements.
    "select nodes.name from nodes, memberships where nodes.membership = memberships.id \
     and memberships.name = 'Compute'",
    "select name from nodes where rack = 0 and rank = 1",
    "explain select nodes.name from nodes, memberships \
     where nodes.membership = memberships.id and memberships.compute = 'yes' order by nodes.name limit 3",
    "explain select rack, count(*) from nodes group by rack",
    "explain delete from nodes",
];

fn corpus() -> Vec<String> {
    let mut rng = Rng(0xc05e_1ec7);
    let mut out: Vec<String> = PINNED.iter().map(|s| s.to_string()).collect();
    while out.len() < 600 {
        out.push(statement(&mut rng));
    }
    out
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Every planner configuration `query_ref_config` accepts.
const CONFIGS: [(&str, PlannerConfig); 3] = [
    ("heuristic", PlannerConfig { mode: PlannerMode::Heuristic, force_join: None }),
    (
        "force-hash",
        PlannerConfig { mode: PlannerMode::CostBased, force_join: Some(JoinAlgo::Hash) },
    ),
    (
        "force-merge",
        PlannerConfig { mode: PlannerMode::CostBased, force_join: Some(JoinAlgo::SortMerge) },
    ),
];

#[test]
fn select_corpus_matches_golden() {
    let db = fixture();
    let mut lines = String::new();
    for sql in corpus() {
        let stats = db.stats();
        let (examined, returned) = (stats.rows_examined(), stats.rows_returned());
        let result = db.query_ref(&sql);
        let examined = stats.rows_examined() - examined;
        let returned = stats.rows_returned() - returned;
        let hash = fnv64(format!("{result:?}").as_bytes());
        lines.push_str(&format!("{sql}\t{hash:016x}\t{examined}\t{returned}\n"));

        assert_eq!(result, db.query_ref_scan(&sql), "scan diverged for {sql}");
        for (label, config) in &CONFIGS {
            assert_eq!(result, db.query_ref_config(&sql, config), "{label} diverged for {sql}");
        }
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/select_corpus.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &lines).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {}: {e}; regenerate with UPDATE_GOLDEN=1", path.display())
    });
    for (want, got) in expected.lines().zip(lines.lines()) {
        assert_eq!(
            want, got,
            "select corpus drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
    assert_eq!(expected.lines().count(), lines.lines().count(), "corpus length changed");
}

/// The string list `query_column_ref` renders straight from the cells is
/// the first column of the scan's rows, rendered; errors included.
#[test]
fn query_column_ref_is_the_first_column_of_the_scan() {
    let db = fixture();
    for sql in corpus() {
        let scanned = db.query_ref_scan(&sql).map(|r| {
            r.rows.iter().filter_map(|row| row.first()).map(Value::render).collect::<Vec<_>>()
        });
        assert_eq!(db.query_column_ref(&sql), scanned, "{sql}");
    }
}
