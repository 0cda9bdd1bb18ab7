//! Hash indexes for equality lookups.
//!
//! A [`HashIndex`] maps every non-NULL cell of one column to the
//! (ascending) row numbers holding it, so `WHERE col = literal` and
//! equi-join probes touch only candidate rows instead of scanning the
//! table. Indexes are *candidate* structures: because the engine's
//! equality ([`Value::sql_cmp`]) coerces between integers and
//! integer-shaped text, a probe returns a **superset** of the truly
//! equal rows and the caller re-verifies each candidate. That keeps the
//! index simple while guaranteeing results byte-identical to a scan.
//!
//! Coercion handling: a stored `Text` value that parses as an integer
//! (`'5'`, `' 5'`, `'05'`) is entered under **both** its exact text and
//! its numeric interpretation, because it compares equal to `Int` values
//! (`5 = '05'` is true) while remaining distinct from other spellings as
//! text (`'5' = '05'` is false). Probes mirror the same rule.

use crate::value::Value;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A hash index over one column of a table. Build with [`HashIndex::build`],
/// keep current with [`HashIndex::add`] as rows are appended, and look up
/// candidates with [`HashIndex::probe`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HashIndex {
    /// Numeric buckets: `Int` cells plus integer-shaped `Text` cells.
    num: HashMap<i64, Vec<u32>>,
    /// Exact-text buckets.
    text: HashMap<String, Vec<u32>>,
}

impl HashIndex {
    /// Build an index from a column's values in row order.
    pub fn build<'a>(column: impl Iterator<Item = &'a Value>) -> HashIndex {
        let mut index = HashIndex::default();
        for (row, value) in column.enumerate() {
            index.add(value, row as u32);
        }
        index
    }

    /// Register `value` at `row`. Rows must be added in ascending order
    /// (they are: tables only ever append) so buckets stay sorted.
    pub fn add(&mut self, value: &Value, row: u32) {
        match value {
            Value::Null => {} // NULL equals nothing; never a candidate
            Value::Int(n) => self.num.entry(*n).or_default().push(row),
            Value::Text(s) => {
                self.text.entry(s.clone()).or_default().push(row);
                if let Ok(n) = s.trim().parse::<i64>() {
                    self.num.entry(n).or_default().push(row);
                }
            }
        }
    }

    /// Take back the newest [`add`](Self::add): `row` must be the highest
    /// row registered under `value`, which holds when appended rows are
    /// removed newest first. Emptied buckets go too, so the index equals
    /// one built from the remaining rows.
    pub(crate) fn remove_last(&mut self, value: &Value, row: u32) {
        match value {
            Value::Null => {}
            Value::Int(n) => pop_row(&mut self.num, n, row),
            Value::Text(s) => {
                pop_row(&mut self.text, s.as_str(), row);
                if let Ok(n) = s.trim().parse::<i64>() {
                    pop_row(&mut self.num, &n, row);
                }
            }
        }
    }

    /// Candidate rows whose value *may* equal `value`, ascending. The
    /// result is complete (every truly equal row is present) but may
    /// contain false positives — e.g. probing `'5'` returns rows storing
    /// `'05'` — so callers must re-check with [`Value::sql_cmp`].
    /// `scratch` is a reusable buffer for the (rare) case where two
    /// buckets must be merged.
    pub fn probe<'s>(&'s self, value: &Value, scratch: &'s mut Vec<u32>) -> &'s [u32] {
        match value {
            Value::Null => &[],
            Value::Int(n) => self.num.get(n).map(Vec::as_slice).unwrap_or(&[]),
            Value::Text(s) => {
                let exact = self.text.get(s.as_str()).map(Vec::as_slice);
                let numeric =
                    s.trim().parse::<i64>().ok().and_then(|n| self.num.get(&n)).map(Vec::as_slice);
                match (exact, numeric) {
                    (None, None) => &[],
                    (Some(one), None) | (None, Some(one)) => one,
                    (Some(a), Some(b)) => {
                        merge_unique(a, b, scratch);
                        scratch.as_slice()
                    }
                }
            }
        }
    }

    /// Number of distinct keys (for tests and EXPLAIN sizing).
    pub fn keys(&self) -> usize {
        self.num.len() + self.text.len()
    }
}

/// Pop `row` off the end of `key`'s bucket, and the bucket with it if
/// that empties it.
fn pop_row<K, Q>(buckets: &mut HashMap<K, Vec<u32>>, key: &Q, row: u32)
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
{
    let bucket = buckets.get_mut(key).expect("removed rows were indexed");
    assert_eq!(bucket.pop(), Some(row), "index entries are removed newest first");
    if bucket.is_empty() {
        buckets.remove(key);
    }
}

/// Merge two ascending slices into `out`, dropping duplicates.
fn merge_unique(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(&x), Some(&y)) if x > y => {
                j += 1;
                y
            }
            (Some(&x), Some(_)) => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        if out.last() != Some(&next) {
            out.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_vec(ix: &HashIndex, v: &Value) -> Vec<u32> {
        let mut scratch = Vec::new();
        ix.probe(v, &mut scratch).to_vec()
    }

    #[test]
    fn int_probe_finds_ints_and_numeric_text() {
        let values =
            [Value::Int(5), Value::Text("05".into()), Value::Text("x".into()), Value::Null];
        let ix = HashIndex::build(values.iter());
        assert_eq!(probe_vec(&ix, &Value::Int(5)), vec![0, 1]);
        assert_eq!(probe_vec(&ix, &Value::Int(6)), Vec::<u32>::new());
    }

    #[test]
    fn text_probe_merges_exact_and_numeric_buckets() {
        let values = [Value::Text("5".into()), Value::Int(5), Value::Text("05".into())];
        let ix = HashIndex::build(values.iter());
        // '5' must see its exact spelling and every Int(5) — and the
        // superset may include '05' (filtered later by sql_cmp).
        let got = probe_vec(&ix, &Value::Text("5".into()));
        assert!(got.contains(&0) && got.contains(&1));
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(got, sorted, "candidates must be ascending and unique");
    }

    #[test]
    fn null_probe_is_empty() {
        let ix = HashIndex::build([Value::Null, Value::Int(1)].iter());
        assert!(probe_vec(&ix, &Value::Null).is_empty());
    }

    #[test]
    fn incremental_add_matches_rebuild() {
        let values: Vec<Value> = (0..50)
            .map(|i| match i % 3 {
                0 => Value::Int(i % 7),
                1 => Value::Text(format!("{}", i % 7)),
                _ => Value::Null,
            })
            .collect();
        let built = HashIndex::build(values.iter());
        let mut grown = HashIndex::default();
        for (row, v) in values.iter().enumerate() {
            grown.add(v, row as u32);
        }
        assert_eq!(built, grown);
    }

    #[test]
    fn merge_unique_dedups() {
        let mut out = Vec::new();
        merge_unique(&[1, 3, 5], &[2, 3, 6], &mut out);
        assert_eq!(out, vec![1, 2, 3, 5, 6]);
    }
}
