//! String literals are slices of the statement text. A quoted string
//! lexes back to exactly itself, whatever characters it holds; arbitrary
//! input — multibyte characters, quotes, truncated sequences — lexes or
//! fails with a typed error, never a panic (a slice taken off a character
//! boundary would panic); and non-ASCII text is stored, matched, journaled
//! and recovered as written.

use proptest::collection;
use proptest::prelude::*;
use rocks_sql::lexer::{lex, Token};
use rocks_sql::{Database, DurableDatabase, MemVfs, SqlError, Value};
use std::borrow::Cow;

/// `s` as a literal in `quote`, each quote inside doubled.
fn quoted(s: &str, quote: char) -> String {
    let q = quote.to_string();
    format!("{quote}{}{quote}", s.replace(quote, &q.repeat(2)))
}

/// Lexing `sql` either succeeds or fails as a lexer error.
fn lexes_or_fails_typed(sql: &str) {
    match lex(sql) {
        Ok(_) | Err(SqlError::Lex(_)) => {}
        Err(other) => panic!("{sql:?}: {other:?}"),
    }
}

/// A character `c` for each width in UTF-8, quotes often.
fn any_char() -> impl Strategy<Value = char> {
    let from = |c: u32| char::from_u32(c).unwrap_or(char::REPLACEMENT_CHARACTER);
    prop_oneof![
        Just('\''),
        Just('"'),
        (0u32..0x80).prop_map(from),
        (0x80u32..0x800).prop_map(from),
        (0x800u32..0x1_0000).prop_map(from),
        (0x1_0000u32..0x11_0000).prop_map(from),
    ]
}

/// Any string of up to 40 such characters.
fn any_string() -> impl Strategy<Value = String> {
    collection::vec(any_char(), 0..40).prop_map(String::from_iter)
}

/// Pieces that put multibyte characters next to quotes and delimiters.
fn piece() -> impl Strategy<Value = &'static str> {
    let pieces = [
        "'", "\"", "''", "\"\"", "é", "ü", "☀", "𝄞", "\u{80}", "a", "Z9", "_", " ", "\n", ",", "(",
        ")", "-", "--", "1", "-2", "=", "<", ">", "!", "@", ";", ".", "*",
    ];
    (0..pieces.len()).prop_map(move |k| pieces[k])
}

proptest! {
    #[test]
    fn quoting_any_string_lexes_to_exactly_that_literal(s in any_string()) {
        for quote in ['\'', '"'] {
            let sql = quoted(&s, quote);
            let tokens = lex(&sql).unwrap();
            prop_assert_eq!(&tokens, &vec![Token::Str(Cow::Borrowed(&s))]);
            // Borrowed from the statement unless a quote had to be undone.
            let Token::Str(lit) = &tokens[0] else { unreachable!() };
            prop_assert_eq!(matches!(lit, Cow::Owned(_)), s.contains(quote), "{}", sql);
        }
    }

    #[test]
    fn arbitrary_input_lexes_or_fails_typed(s in any_string()) {
        lexes_or_fails_typed(&s);
    }

    #[test]
    fn multibyte_text_around_quotes_lexes_or_fails_typed(
        pieces in collection::vec(piece(), 0..24)
    ) {
        let sql = pieces.concat();
        // Every cut of it: at character boundaries as is, elsewhere with
        // the truncated sequence decoded as U+FFFD.
        for cut in 0..=sql.len() {
            if let Some(head) = sql.get(..cut) {
                lexes_or_fails_typed(head);
            }
            lexes_or_fails_typed(&String::from_utf8_lossy(&sql.as_bytes()[..cut]));
        }
    }
}

const TEXT: &str = "café-ü ☀ 𝄞";

/// Each way of reading `TEXT` back, with what it must find.
fn check_reads(db: &Database, stage: &str) {
    let names = |sql: &str| db.query_column_ref(sql).unwrap();
    let want = vec![TEXT.to_string()];
    assert_eq!(names("select name from t where id = 1"), want, "{stage}: the stored cell");
    assert_eq!(names(&format!("select name from t where name = '{TEXT}'")), want, "{stage}: =");
    assert_eq!(names("select name from t where name like 'café%'"), want, "{stage}: LIKE");
    assert_eq!(names("select name from t where name like '%ü ☀ 𝄞'"), want, "{stage}: LIKE");
    let sql = format!("select name from t where name in ('x', '{TEXT}')");
    assert_eq!(names(&sql), want, "{stage}: IN");
    assert_eq!(
        names("select name from t where id = 2"),
        vec!["it's köln".to_string()],
        "{stage}: a doubled quote beside multibyte text"
    );
    let rows = db
        .query_ref("select name from t where name = 'cafÃ©-Ã¼ â\u{98}\u{80} ð\u{9d}\u{84}\u{9e}'");
    assert!(
        rows.unwrap().rows.is_empty(),
        "{stage}: the Latin-1 reading of the bytes is not stored"
    );
}

#[test]
fn non_ascii_literals_round_trip_in_memory_through_replay_and_checkpoint() {
    let vfs = MemVfs::new();
    let mut db = DurableDatabase::open(&vfs).unwrap();
    db.execute("create table t (id int, name text)").unwrap();
    db.execute(&format!("insert into t values (1, '{TEXT}')")).unwrap();
    db.execute("insert into t values (2, 'it''s köln')").unwrap();
    assert_eq!(db.reader().table("t").unwrap().rows()[0][1], Value::Text(TEXT.into()));
    check_reads(db.reader(), "in memory");
    drop(db);

    let mut db = DurableDatabase::open(&vfs).unwrap();
    assert_eq!(db.recovery_report().commits_replayed, 3, "every statement came from the log");
    check_reads(db.reader(), "after WAL replay");
    db.checkpoint().unwrap();
    drop(db);

    let db = DurableDatabase::open(&vfs).unwrap();
    assert_eq!(db.recovery_report().commits_replayed, 0, "every row came from the snapshot");
    check_reads(db.reader(), "after a checkpoint reopen");
}

#[test]
fn an_unexpected_character_is_named_as_written() {
    for (sql, c, at) in [("select @", '@', 7), ("select é", 'é', 7), ("x = 1 ☀", '☀', 6)] {
        let want = format!("unexpected character {c:?} at byte {at}");
        assert_eq!(lex(sql).unwrap_err(), SqlError::Lex(want), "{sql}");
    }
}
