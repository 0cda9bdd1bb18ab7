//! Runtime values and their comparison semantics.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A cell value. The Rocks schema (paper Tables II/III) uses integers
/// (ids, rack, rank) and strings (MACs, names, IPs, comments).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// The integer inside, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// True if NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Render for report output: NULL renders as the MySQL-style `NULL`.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(n) => n.to_string(),
            Value::Text(s) => s.clone(),
        }
    }

    /// [`render`](Self::render), borrowing text instead of copying it.
    pub fn rendered(&self) -> Cow<'_, str> {
        match self {
            Value::Text(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.render()),
        }
    }

    /// [`render`](Self::render), moving text out instead of copying it.
    pub fn into_rendered(self) -> String {
        match self {
            Value::Text(s) => s,
            other => other.render(),
        }
    }

    /// SQL truthiness for WHERE evaluation: nonzero integers are true,
    /// NULL and everything else is false (MySQL coerces similarly).
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Int(n) if *n != 0)
    }

    /// Three-valued comparison: NULL compares with nothing (returns
    /// `None`, which makes predicates involving NULL false, per SQL).
    /// Int vs Text falls back to comparing the text rendering of the int,
    /// which mirrors MySQL's loose coercion and keeps hand-written admin
    /// queries forgiving.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Text(b)) => {
                // Try numeric interpretation of the text first.
                match b.trim().parse::<i64>() {
                    Ok(n) => Some(a.cmp(&n)),
                    Err(_) => Some(a.to_string().cmp(b)),
                }
            }
            (Value::Text(_), Value::Int(_)) => other.sql_cmp(self).map(Ordering::reverse),
        }
    }

    /// SQL `LIKE` with `%` (any run) and `_` (any single char),
    /// case-insensitive, as MySQL defaults to.
    pub fn like(&self, pattern: &str) -> bool {
        let text = match self {
            Value::Text(s) => s.to_ascii_lowercase(),
            Value::Int(n) => n.to_string(),
            Value::Null => return false,
        };
        like_match(text.as_bytes(), pattern.to_ascii_lowercase().as_bytes())
    }
}

fn like_match(text: &[u8], pat: &[u8]) -> bool {
    // Classic two-pointer wildcard match with backtracking on `%`.
    let (mut t, mut p) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while t < text.len() {
        if p < pat.len() && (pat[p] == b'_' || pat[p] == text[t]) {
            t += 1;
            p += 1;
        } else if p < pat.len() && pat[p] == b'%' {
            star_p = p;
            star_t = t;
            p += 1;
        } else if star_p != usize::MAX {
            star_t += 1;
            t = star_t;
            p = star_p + 1;
        } else {
            return false;
        }
    }
    while p < pat.len() && pat[p] == b'%' {
        p += 1;
    }
    p == pat.len()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_compares_with_nothing() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn mixed_type_coercion() {
        assert_eq!(Value::Int(5).sql_cmp(&Value::Text("5".into())), Some(Ordering::Equal));
        assert_eq!(Value::Int(5).sql_cmp(&Value::Text("7".into())), Some(Ordering::Less));
        assert_eq!(Value::Text("10".into()).sql_cmp(&Value::Int(9)), Some(Ordering::Greater));
    }

    #[test]
    fn like_patterns() {
        let v = Value::Text("compute-0-12".into());
        assert!(v.like("compute-%"));
        assert!(v.like("compute-0-__"));
        assert!(v.like("%-12"));
        assert!(v.like("COMPUTE-%")); // case-insensitive
        assert!(!v.like("compute-1-%"));
        assert!(!v.like("compute-0-_"));
        assert!(!Value::Null.like("%"));
        assert!(Value::Text("".into()).like("%"));
        assert!(!Value::Text("".into()).like("_"));
    }

    #[test]
    fn like_backtracking() {
        assert!(Value::Text("abcbcd".into()).like("a%bcd"));
        assert!(Value::Text("aaa".into()).like("%a%a%"));
        assert!(!Value::Text("ab".into()).like("%a%a%"));
    }

    #[test]
    fn render_forms() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Int(-3).render(), "-3");
        assert_eq!(Value::Text("x".into()).render(), "x");
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(Value::Int(-1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Text("yes".into()).is_truthy());
    }
}
