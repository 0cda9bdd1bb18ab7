//! Recursive-descent parser for the supported SQL subset.

use crate::ast::*;
use crate::lexer::{lex, Token};
use crate::table::ColumnType;
use crate::value::Value;
use crate::{Result, SqlError};

/// The deepest expression the parser builds. Every node counts one level
/// over its deepest child, and so does a pair of parentheses, so nested
/// parentheses, chained NOTs and AND/OR chains (built in a loop) all
/// count alike. Parsing, planning, evaluation, EXPLAIN and drop recurse
/// on the tree: past some depth a `--query=` would overflow the stack
/// and abort the process. At this depth every stage runs on a 2 MiB
/// debug-build thread; one level more is [`SqlError::TooDeep`].
pub(crate) const MAX_EXPR_DEPTH: usize = 256;

/// An expression and its depth.
type Node = (Expr, usize);

/// `expr` at `depth`, or the depth error.
fn node(expr: Expr, depth: usize) -> Result<Node> {
    if depth > MAX_EXPR_DEPTH {
        return Err(SqlError::TooDeep { limit: MAX_EXPR_DEPTH });
    }
    Ok((expr, depth))
}

/// `lhs op rhs` one level over the deeper operand.
fn binary(op: BinOp, (lhs, l): Node, (rhs, r): Node) -> Result<Node> {
    node(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, 1 + l.max(r))
}

/// Parse one statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0, nesting: 0 };
    let stmt = p.statement()?;
    p.eat_optional_semicolon();
    if p.pos != p.tokens.len() {
        return Err(SqlError::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses, NOTs and EXPLAINs open around the current token: the
    /// parser's own recursion, bounded before it descends.
    nesting: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume the next token if it is the given keyword (case-insensitive).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected keyword {kw:?}, found {:?}", self.peek())))
        }
    }

    fn eat_tok(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, tok: Token) -> Result<()> {
        if self.eat_tok(&tok) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {tok:?}, found {:?}", self.peek())))
        }
    }

    /// Run `f` one nesting level down. An expression inside more levels
    /// than [`MAX_EXPR_DEPTH`] is deeper than that, so this refuses it
    /// before the recursion does.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.nesting += 1;
        if self.nesting > MAX_EXPR_DEPTH {
            return Err(SqlError::TooDeep { limit: MAX_EXPR_DEPTH });
        }
        let out = f(self);
        self.nesting -= 1;
        out
    }

    fn eat_optional_semicolon(&mut self) {
        while self.eat_tok(&Token::Semicolon) {}
    }

    fn identifier(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Some(Token::Word(w)) => Ok(w.to_ascii_lowercase()),
            other => Err(SqlError::Parse(format!("expected {what}, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("create") {
            self.create_table()
        } else if self.eat_kw("insert") {
            self.insert()
        } else if self.eat_kw("select") {
            self.select()
        } else if self.eat_kw("update") {
            self.update()
        } else if self.eat_kw("delete") {
            self.delete()
        } else if self.eat_kw("drop") {
            self.expect_kw("table")?;
            let name = self.identifier("table name")?;
            Ok(Statement::DropTable { name })
        } else if self.eat_kw("explain") {
            Ok(Statement::Explain(Box::new(self.nested(Self::statement)?)))
        } else {
            Err(SqlError::Parse(format!("expected a statement, found {:?}", self.peek())))
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("table")?;
        let name = self.identifier("table name")?;
        self.expect_tok(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.identifier("column name")?;
            let ty_word = self.identifier("column type")?;
            let ty = match ty_word.as_str() {
                "int" | "integer" | "bigint" | "smallint" => ColumnType::Int,
                "text" | "varchar" | "char" | "string" => ColumnType::Text,
                other => return Err(SqlError::Parse(format!("unknown column type {other:?}"))),
            };
            // Tolerate a length suffix like varchar(32).
            if self.eat_tok(&Token::LParen) {
                match self.next() {
                    Some(Token::Int(_)) => {}
                    other => {
                        return Err(SqlError::Parse(format!(
                            "expected length in type suffix, found {other:?}"
                        )))
                    }
                }
                self.expect_tok(Token::RParen)?;
            }
            columns.push((col, ty));
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_tok(Token::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.identifier("table name")?;
        let columns = if self.eat_tok(&Token::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.identifier("column name")?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
            rows.push(row);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Value::Int(n)),
            Some(Token::Str(s)) => Ok(Value::Text(s)),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("null") => Ok(Value::Null),
            other => Err(SqlError::Parse(format!("expected a literal, found {other:?}"))),
        }
    }

    fn select(&mut self) -> Result<Statement> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            from.push(self.identifier("table name")?);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let where_clause = self.where_clause()?;
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let column = self.column_ref()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { column, desc });
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(SqlError::Parse(format!("expected LIMIT count, found {other:?}")))
                }
            }
        } else {
            None
        };
        Ok(Statement::Select { items, from, where_clause, group_by, order_by, limit })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_tok(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregates: COUNT(*), MIN(col), MAX(col).
        if let Some(Token::Word(w)) = self.peek() {
            let kw = w.to_ascii_lowercase();
            if matches!(kw.as_str(), "count" | "min" | "max" | "sum")
                && self.tokens.get(self.pos + 1) == Some(&Token::LParen)
            {
                self.pos += 2; // word + lparen
                let item = match kw.as_str() {
                    "count" => {
                        self.expect_tok(Token::Star)?;
                        SelectItem::CountStar
                    }
                    "min" => SelectItem::Min(self.column_ref()?),
                    "max" => SelectItem::Max(self.column_ref()?),
                    "sum" => SelectItem::Sum(self.column_ref()?),
                    _ => unreachable!(),
                };
                self.expect_tok(Token::RParen)?;
                return Ok(item);
            }
        }
        Ok(SelectItem::Column(self.column_ref()?))
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.identifier("column name")?;
        if self.eat_tok(&Token::Dot) {
            let column = self.identifier("column name after '.'")?;
            Ok(ColumnRef { table: Some(first), column })
        } else {
            Ok(ColumnRef { table: None, column: first })
        }
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.identifier("table name")?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.identifier("column name")?;
            self.expect_tok(Token::Eq)?;
            sets.push((col, self.primary_expr()?.0));
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let where_clause = self.where_clause()?;
        Ok(Statement::Update { table, sets, where_clause })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("from")?;
        let table = self.identifier("table name")?;
        let where_clause = self.where_clause()?;
        Ok(Statement::Delete { table, where_clause })
    }

    fn where_clause(&mut self) -> Result<Option<Expr>> {
        Ok(if self.eat_kw("where") { Some(self.expr()?.0) } else { None })
    }

    // Expression grammar, lowest to highest precedence:
    //   expr     := and_expr (OR and_expr)*
    //   and_expr := not_expr (AND not_expr)*
    //   not_expr := NOT not_expr | comparison
    //   comparison := primary ((=|!=|<|<=|>|>=) primary
    //                          | [NOT] LIKE 'pat'
    //                          | IS [NOT] NULL
    //                          | [NOT] IN (lit, ...))?
    //   primary  := literal | column | '(' expr ')'
    // Each returns its expression's depth (see `MAX_EXPR_DEPTH`).
    fn expr(&mut self) -> Result<Node> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            lhs = binary(BinOp::Or, lhs, self.and_expr()?)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Node> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            lhs = binary(BinOp::And, lhs, self.not_expr()?)?;
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Node> {
        if self.eat_kw("not") {
            let (inner, depth) = self.nested(Self::not_expr)?;
            node(Expr::Not(Box::new(inner)), depth + 1)
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Node> {
        let (lhs, depth) = self.primary_expr()?;

        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            return binary(op, (lhs, depth), self.primary_expr()?);
        }

        // Postfix predicates.
        let negated = {
            // `NOT` here must be followed by LIKE or IN to be postfix.
            if let Some(Token::Word(w)) = self.peek() {
                if w.eq_ignore_ascii_case("not") {
                    let next = self.tokens.get(self.pos + 1);
                    if let Some(Token::Word(nw)) = next {
                        if nw.eq_ignore_ascii_case("like") || nw.eq_ignore_ascii_case("in") {
                            self.pos += 1;
                            true
                        } else {
                            false
                        }
                    } else {
                        false
                    }
                } else {
                    false
                }
            } else {
                false
            }
        };

        if self.eat_kw("like") {
            match self.next() {
                Some(Token::Str(pattern)) => {
                    return node(Expr::Like { expr: Box::new(lhs), pattern, negated }, depth + 1)
                }
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected string pattern after LIKE, found {other:?}"
                    )))
                }
            }
        }
        if self.eat_kw("in") {
            self.expect_tok(Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.literal()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
            return node(Expr::InList { expr: Box::new(lhs), list, negated }, depth + 1);
        }
        if negated {
            return Err(SqlError::Parse("dangling NOT before non-predicate".into()));
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return node(Expr::IsNull { expr: Box::new(lhs), negated }, depth + 1);
        }
        Ok((lhs, depth))
    }

    fn primary_expr(&mut self) -> Result<Node> {
        match self.peek() {
            Some(Token::LParen) => {
                self.pos += 1;
                let (inner, depth) = self.nested(Self::expr)?;
                self.expect_tok(Token::RParen)?;
                node(inner, depth + 1)
            }
            Some(Token::Int(_)) | Some(Token::Str(_)) => Ok((Expr::Literal(self.literal()?), 0)),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("null") => {
                self.pos += 1;
                Ok((Expr::Literal(Value::Null), 0))
            }
            Some(Token::Word(_)) => Ok((Expr::Column(self.column_ref()?), 0)),
            other => Err(SqlError::Parse(format!("expected an expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let stmt = parse("CREATE TABLE nodes (id INT, mac VARCHAR(17), name TEXT)").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateTable {
                name: "nodes".into(),
                columns: vec![
                    ("id".into(), ColumnType::Int),
                    ("mac".into(), ColumnType::Text),
                    ("name".into(), ColumnType::Text),
                ],
            }
        );
    }

    #[test]
    fn parses_multi_row_insert() {
        let stmt = parse("insert into t (a, b) values (1, 'x'), (2, NULL)").unwrap();
        assert_eq!(
            stmt,
            Statement::Insert {
                table: "t".into(),
                columns: Some(vec!["a".into(), "b".into()]),
                rows: vec![
                    vec![Value::Int(1), Value::Text("x".into())],
                    vec![Value::Int(2), Value::Null],
                ],
            }
        );
    }

    #[test]
    fn parses_paper_join_query() {
        let stmt = parse(
            "select nodes.name from nodes,memberships where \
             nodes.membership = memberships.id and memberships.name = 'Compute'",
        )
        .unwrap();
        match stmt {
            Statement::Select { items, from, where_clause, .. } => {
                assert_eq!(items, vec![SelectItem::Column(ColumnRef::qualified("nodes", "name"))]);
                assert_eq!(from, vec!["nodes".to_string(), "memberships".to_string()]);
                // Top-level operator must be AND over the two equalities.
                match where_clause.unwrap() {
                    Expr::Binary { op: BinOp::And, .. } => {}
                    other => panic!("expected AND, got {other:?}"),
                }
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let stmt = parse("select a from t where a=1 or b=2 and c=3").unwrap();
        if let Statement::Select { where_clause: Some(Expr::Binary { op, rhs, .. }), .. } = stmt {
            assert_eq!(op, BinOp::Or);
            assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
        } else {
            panic!("bad parse");
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let stmt = parse("select a from t where (a=1 or b=2) and c=3").unwrap();
        if let Statement::Select { where_clause: Some(Expr::Binary { op, lhs, .. }), .. } = stmt {
            assert_eq!(op, BinOp::And);
            assert!(matches!(*lhs, Expr::Binary { op: BinOp::Or, .. }));
        } else {
            panic!("bad parse");
        }
    }

    #[test]
    fn like_in_isnull_and_not() {
        assert!(parse("select a from t where name like 'compute-%'").is_ok());
        assert!(parse("select a from t where name not like 'x%'").is_ok());
        assert!(parse("select a from t where rack in (1, 2, 3)").is_ok());
        assert!(parse("select a from t where rack not in (1, 2)").is_ok());
        assert!(parse("select a from t where comment is null").is_ok());
        assert!(parse("select a from t where comment is not null").is_ok());
        assert!(parse("select a from t where not (a = 1)").is_ok());
    }

    #[test]
    fn aggregates() {
        let stmt = parse("select count(*), min(rank), max(rank) from nodes").unwrap();
        if let Statement::Select { items, .. } = stmt {
            assert_eq!(items.len(), 3);
            assert_eq!(items[0], SelectItem::CountStar);
            assert_eq!(items[1], SelectItem::Min(ColumnRef::bare("rank")));
            assert_eq!(items[2], SelectItem::Max(ColumnRef::bare("rank")));
        } else {
            panic!("bad parse");
        }
    }

    #[test]
    fn order_by_and_limit() {
        let stmt = parse("select * from nodes order by rack desc, rank limit 5").unwrap();
        if let Statement::Select { order_by, limit, .. } = stmt {
            assert_eq!(order_by.len(), 2);
            assert!(order_by[0].desc);
            assert!(!order_by[1].desc);
            assert_eq!(limit, Some(5));
        } else {
            panic!("bad parse");
        }
    }

    #[test]
    fn update_and_delete() {
        assert_eq!(
            parse("update nodes set rack = 2 where name = 'compute-0-0'").unwrap(),
            Statement::Update {
                table: "nodes".into(),
                sets: vec![("rack".into(), Expr::Literal(Value::Int(2)))],
                where_clause: Some(Expr::Binary {
                    op: BinOp::Eq,
                    lhs: Box::new(Expr::Column(ColumnRef::bare("name"))),
                    rhs: Box::new(Expr::Literal(Value::Text("compute-0-0".into()))),
                }),
            }
        );
        assert!(parse("delete from nodes where id = 3").is_ok());
        assert!(parse("delete from nodes").is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("selec a from t").is_err());
        assert!(parse("select from t").is_err());
        assert!(parse("select a from t where").is_err());
        assert!(parse("select a from t extra junk").is_err());
        assert!(parse("insert into t values").is_err());
        assert!(parse("create table t ()").is_err());
        assert!(parse("select a from t where a like 5").is_err());
    }

    /// A WHERE clause `depth` levels deep, in one of the three shapes
    /// that used to overflow the stack, and the ids it selects from 1..=3.
    fn deep_where(shape: &str, depth: usize) -> (String, Vec<i64>) {
        match shape {
            "parens" => {
                let n = depth - 1; // `id = 2` is one level
                (format!("{}id = 2{}", "(".repeat(n), ")".repeat(n)), vec![2])
            }
            "not" => {
                let n = depth - 1;
                (
                    format!("{}id = 2", "not ".repeat(n)),
                    if n.is_multiple_of(2) { vec![2] } else { vec![1, 3] },
                )
            }
            _ => {
                let terms: Vec<String> = (0..depth).map(|i| format!("id = {}", i + 3)).collect();
                (terms.join(" or "), vec![3])
            }
        }
    }

    #[test]
    fn expressions_at_the_depth_limit_run_and_one_deeper_is_a_typed_error() {
        let mut db = crate::Database::new();
        db.execute("create table t (id int, name text)").unwrap();
        db.execute("insert into t values (1, 'a'), (2, 'b'), (3, 'c')").unwrap();
        let too_deep = SqlError::TooDeep { limit: MAX_EXPR_DEPTH };
        for shape in ["parens", "not", "or"] {
            // Parse, plan, evaluate (planned and scanned), EXPLAIN, drop.
            let (cond, ids) = deep_where(shape, MAX_EXPR_DEPTH);
            let sql = format!("select id from t where {cond}");
            let want: Vec<Vec<Value>> = ids.into_iter().map(|i| vec![Value::Int(i)]).collect();
            assert_eq!(db.query_ref(&sql).unwrap().rows, want, "{shape} at the limit");
            assert_eq!(db.query_ref_scan(&sql).unwrap().rows, want, "{shape} scanned");
            assert!(!db.query(&format!("explain {sql}")).unwrap().rows.is_empty());
            let update = db.execute(&format!("update t set name = name where {cond}")).unwrap();
            assert_eq!(update, crate::ExecOutcome::Written { affected: want.len() });

            let (cond, _) = deep_where(shape, MAX_EXPR_DEPTH + 1);
            let sql = format!("select id from t where {cond}");
            assert_eq!(db.query_ref(&sql).unwrap_err(), too_deep, "{shape} past the limit");
        }
        // The three statements that aborted the process at the parent.
        let parens =
            format!("select id from t where {}id = 1{}", "(".repeat(10_000), ")".repeat(10_000));
        let nots = format!("select id from t where {}id = 1", "not ".repeat(100_000));
        let ors = deep_where("or", 100_000).0;
        for sql in [parens, nots, format!("select id from t where {ors}")] {
            assert_eq!(db.query_ref(&sql).unwrap_err(), too_deep);
        }
        assert!(too_deep.to_string().contains(&MAX_EXPR_DEPTH.to_string()));
        // Long OR lists have a flat spelling.
        let list: Vec<String> = (0..100_000).map(|i| (i + 3).to_string()).collect();
        let sql = format!("select id from t where id in ({})", list.join(", "));
        assert_eq!(db.query_ref(&sql).unwrap().rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("select a from t;").is_ok());
        assert!(parse("drop table t;").is_ok());
    }
}
