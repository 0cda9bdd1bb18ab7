//! Property tests for the SQL engine: the parser/executor must never
//! panic on arbitrary input (administrators type raw `--query` strings,
//! paper §6.4), and basic relational invariants must hold.

use proptest::prelude::*;
use rocks_sql::{Database, Value};

fn seeded_db(rows: &[(i64, String, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("create table nodes (id int, name text, rack int)").unwrap();
    for (id, name, rack) in rows {
        db.execute(&format!(
            "insert into nodes values ({id}, '{}', {rack})",
            name.replace('\'', "''")
        ))
        .unwrap();
    }
    db
}

proptest! {
    #[test]
    fn parser_never_panics(sql in ".{0,120}") {
        let mut db = Database::new();
        let _ = db.execute(&sql);
    }

    #[test]
    fn sqlish_input_never_panics(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("select".to_string()), Just("from".to_string()),
                Just("where".to_string()), Just("and".to_string()),
                Just("or".to_string()), Just("not".to_string()),
                Just("insert".to_string()), Just("into".to_string()),
                Just("values".to_string()), Just("like".to_string()),
                Just("order by".to_string()), Just("*".to_string()),
                Just(",".to_string()), Just("(".to_string()), Just(")".to_string()),
                Just("=".to_string()), Just("<".to_string()), Just("'x'".to_string()),
                Just("nodes".to_string()), Just("name".to_string()),
                Just("1".to_string()),
            ],
            0..16,
        )
    ) {
        let mut db = seeded_db(&[(1, "a".into(), 0)]);
        let _ = db.execute(&parts.join(" "));
    }

    #[test]
    fn insert_then_count_matches(
        rows in proptest::collection::vec((0i64..1000, "[a-z]{1,8}", 0i64..8), 0..20)
    ) {
        let db = seeded_db(&rows);
        let count = db.query_column_ref("select count(*) from nodes").unwrap();
        prop_assert_eq!(count, vec![rows.len().to_string()]);
    }

    #[test]
    fn where_partition_is_complete(
        rows in proptest::collection::vec((0i64..1000, "[a-z]{1,8}", 0i64..8), 0..20),
        pivot in 0i64..8,
    ) {
        let db = seeded_db(&rows);
        let lo = db.query_ref(&format!("select id from nodes where rack < {pivot}")).unwrap();
        let hi = db.query_ref(&format!("select id from nodes where rack >= {pivot}")).unwrap();
        prop_assert_eq!(lo.rows.len() + hi.rows.len(), rows.len());
    }

    #[test]
    fn order_by_sorts(
        rows in proptest::collection::vec((0i64..1000, "[a-z]{1,8}", 0i64..8), 0..20)
    ) {
        let db = seeded_db(&rows);
        let result = db.query_ref("select id from nodes order by id").unwrap();
        let ids: Vec<i64> = result.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ids, sorted);
    }

    #[test]
    fn delete_plus_remaining_equals_total(
        rows in proptest::collection::vec((0i64..1000, "[a-z]{1,8}", 0i64..8), 0..20),
        pivot in 0i64..8,
    ) {
        let mut db = seeded_db(&rows);
        let before = rows.len();
        let deleted = match db.execute(&format!("delete from nodes where rack = {pivot}")).unwrap() {
            rocks_sql::ExecOutcome::Written { affected } => affected,
            _ => unreachable!(),
        };
        let after = db.table("nodes").unwrap().len();
        prop_assert_eq!(deleted + after, before);
    }

    #[test]
    fn join_count_is_product_of_matching(
        left in proptest::collection::vec(0i64..4, 0..10),
        right in proptest::collection::vec(0i64..4, 0..10),
    ) {
        let mut db = Database::new();
        db.execute("create table l (k int)").unwrap();
        db.execute("create table r (k int)").unwrap();
        for k in &left { db.execute(&format!("insert into l values ({k})")).unwrap(); }
        for k in &right { db.execute(&format!("insert into r values ({k})")).unwrap(); }
        let joined = db.query_ref("select l.k from l, r where l.k = r.k").unwrap();
        let expected: usize = left
            .iter()
            .map(|lk| right.iter().filter(|rk| *rk == lk).count())
            .sum();
        prop_assert_eq!(joined.rows.len(), expected);
    }

    #[test]
    fn text_round_trips_through_storage(name in "[ -~]{0,24}") {
        let mut db = Database::new();
        db.execute("create table t (s text)").unwrap();
        let escaped = name.replace('\'', "''");
        db.execute(&format!("insert into t values ('{escaped}')")).unwrap();
        let rows = db.query_ref("select s from t").unwrap();
        prop_assert_eq!(rows.rows[0][0].clone(), Value::Text(name));
    }
}
