//! Abstract syntax for the supported SQL subset.

use crate::table::ColumnType;
use crate::value::Value;

/// A (possibly qualified) column reference: `name` or `table.name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Qualifier, lower-cased, if written.
    pub table: Option<String>,
    /// Column name, lower-cased.
    pub column: String,
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// Binary comparison and logical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Expression tree for WHERE clauses and SET values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference.
    Column(ColumnRef),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `expr LIKE 'pattern'` (negated when `negated`).
    Like {
        /// Matched expression.
        expr: Box<Expr>,
        /// `%`/`_` pattern.
        pattern: String,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)` (negated when `negated`).
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Literal list.
        list: Vec<Value>,
        /// `NOT IN` when true.
        negated: bool,
    },
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        })
    }
}

/// Render a literal the way it would be written in SQL (single quotes
/// doubled inside text). Used by `Display for Expr`, i.e. EXPLAIN output.
fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(n) => n.to_string(),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

impl std::fmt::Display for Expr {
    /// SQL-ish rendering for EXPLAIN output. Binary/NOT nodes are always
    /// parenthesized, so precedence never needs reconstructing.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Literal(v) => f.write_str(&sql_literal(v)),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Not(inner) => write!(f, "(not {inner})"),
            Expr::Like { expr, pattern, negated } => {
                let not = if *negated { " not" } else { "" };
                write!(f, "({expr}{not} like '{}')", pattern.replace('\'', "''"))
            }
            Expr::IsNull { expr, negated } => {
                let not = if *negated { " not" } else { "" };
                write!(f, "({expr} is{not} null)")
            }
            Expr::InList { expr, list, negated } => {
                let not = if *negated { " not" } else { "" };
                let items: Vec<String> = list.iter().map(sql_literal).collect();
                write!(f, "({expr}{not} in ({}))", items.join(", "))
            }
        }
    }
}

/// One item in a SELECT projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectItem {
    /// `*` — every column of every FROM table, in declaration order.
    Wildcard,
    /// A column reference.
    Column(ColumnRef),
    /// `COUNT(*)`.
    CountStar,
    /// `MIN(col)`.
    Min(ColumnRef),
    /// `MAX(col)`.
    Max(ColumnRef),
    /// `SUM(col)`.
    Sum(ColumnRef),
}

impl SelectItem {
    /// Whether this item is an aggregate function.
    pub fn is_aggregate(&self) -> bool {
        matches!(
            self,
            SelectItem::CountStar | SelectItem::Min(_) | SelectItem::Max(_) | SelectItem::Sum(_)
        )
    }
}

/// `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// Column to sort by.
    pub column: ColumnRef,
    /// Descending when true.
    pub desc: bool,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column declarations.
        columns: Vec<(String, ColumnType)>,
    },
    /// `INSERT INTO name [(cols)] VALUES (...), (...)`.
    Insert {
        /// Target table.
        table: String,
        /// Named column subset, if written.
        columns: Option<Vec<String>>,
        /// One literal tuple per row.
        rows: Vec<Vec<Value>>,
    },
    /// `SELECT items FROM tables [WHERE expr] [GROUP BY cols]
    /// [ORDER BY keys] [LIMIT n]`.
    Select {
        /// Projection items.
        items: Vec<SelectItem>,
        /// FROM tables (cross join).
        from: Vec<String>,
        /// Optional filter.
        where_clause: Option<Expr>,
        /// Grouping columns.
        group_by: Vec<ColumnRef>,
        /// Sort keys.
        order_by: Vec<OrderKey>,
        /// Row cap.
        limit: Option<usize>,
    },
    /// `UPDATE table SET col = expr, ... [WHERE expr]`.
    Update {
        /// Target table.
        table: String,
        /// Column assignments.
        sets: Vec<(String, Expr)>,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE expr]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `EXPLAIN <statement>` — render the chosen query plan instead of
    /// executing. Only SELECT can be explained; the planner does not
    /// apply to writes.
    Explain(Box<Statement>),
}
