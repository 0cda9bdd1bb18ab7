//! Incremental per-column table statistics for the cost-based optimizer.
//!
//! The planner (see `plan.rs`) prices scans, index probes, and joins
//! with per-column statistics: exact row/NULL counts, an NDV
//! (number-of-distinct-values) estimate, min/max bounds, and a small
//! equi-depth histogram. Statistics are:
//!
//! * **built lazily** on first use — for large tables from a
//!   deterministic stride *sample* (at most [`SAMPLE_CAP`] rows), with
//!   sample-to-table scaling and a Haas–Stokes-style NDV correction;
//! * **folded incrementally** as rows are appended (exact row count,
//!   widened min/max, bucket counts nudged), tracked by a
//!   stats-generation counter so a fold is only applied when the cached
//!   statistics describe exactly the previous generation;
//! * **rebuilt** when in-place mutation invalidates them (UPDATE/DELETE
//!   clear them wholesale, like hash indexes) or when accumulated drift
//!   since the last build exceeds 50% of the built row count — folds keep
//!   counts current but cannot re-shape the histogram.
//!
//! # The key space and `sql_cmp`
//!
//! SQL equality here is *non-transitive* over raw values: `5 = '5'` and
//! `5 = '05'` are both true while `'5' = '05'` is false. Histograms
//! therefore operate on a *normalized* key space, [`StatKey`]: any text that parses as an `i64` maps to its
//! numeric key, everything else stays text, and `Num(_) < Text(_)`. Two
//! values that compare equal under [`Value::sql_cmp`] always share a
//! group key (the numeric interpretation wins for both, or neither
//! parses and the texts are byte-identical), so grouping by `StatKey` is
//! a *superset* partition: every truly-equal pair lands in one group,
//! and pairs within a group still need an `sql_cmp` re-check.

use crate::ast::BinOp;
use crate::value::Value;
use std::cmp::Ordering;

/// Histogram width: enough resolution to see skew, small enough that a
/// rebuild clones at most this many boundary keys.
pub(crate) const HIST_BUCKETS: usize = 16;

/// Statistics builds over larger tables sample a deterministic stride of
/// at most this many rows.
pub(crate) const SAMPLE_CAP: usize = 4096;

/// Rebuild statistics once appended-row drift exceeds this fraction of
/// the row count they were built over (folds track totals exactly but
/// cannot reshape the histogram).
const DRIFT_REBUILD_FRACTION: f64 = 0.5;

/// Owned normalized key: the total order statistics run on. Integer-shaped text collapses onto its numeric value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum StatKey {
    /// `Int` cells and text that parses as `i64`.
    Num(i64),
    /// Text with no numeric interpretation.
    Text(String),
}

impl StatKey {
    pub(crate) fn as_ref(&self) -> KeyRef<'_> {
        match self {
            StatKey::Num(n) => KeyRef::Num(*n),
            StatKey::Text(s) => KeyRef::Text(s),
        }
    }
}

/// Borrowed normalized key — what a statistics build sorts, so no string
/// is cloned per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum KeyRef<'a> {
    Num(i64),
    Text(&'a str),
}

impl<'a> KeyRef<'a> {
    /// Normalize a value; `None` for NULL (NULL equals nothing and is
    /// tracked by the null count, not the histogram).
    pub(crate) fn of(v: &'a Value) -> Option<KeyRef<'a>> {
        match v {
            Value::Null => None,
            Value::Int(n) => Some(KeyRef::Num(*n)),
            Value::Text(s) => match s.trim().parse::<i64>() {
                Ok(n) => Some(KeyRef::Num(n)),
                Err(_) => Some(KeyRef::Text(s)),
            },
        }
    }

    fn to_owned_key(self) -> StatKey {
        match self {
            KeyRef::Num(n) => StatKey::Num(n),
            KeyRef::Text(s) => StatKey::Text(s.to_string()),
        }
    }
}

/// One equi-depth bucket. Counts are in *sample units*; multiply by the
/// column's `scale` for estimated rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Bucket {
    /// Inclusive upper bound of the bucket's key range.
    pub upper: StatKey,
    /// Sampled rows that landed in the bucket.
    pub rows: f64,
    /// Distinct sampled keys in the bucket.
    pub ndv: f64,
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnStats {
    /// Estimated NULL cells (exact when the build was unsampled).
    pub nulls: f64,
    /// Estimated distinct non-null keys in the whole table.
    pub ndv: f64,
    /// `ndv / sampled-distinct`: corrects per-bucket sampled NDV up to
    /// table scale (1.0 for unsampled builds).
    ndv_ratio: f64,
    /// Estimated rows per sampled row (1.0 for unsampled builds).
    scale: f64,
    /// Smallest key seen (build or fold).
    pub min: Option<StatKey>,
    /// Largest key seen (build or fold).
    pub max: Option<StatKey>,
    /// Equi-depth histogram over non-null keys at build time.
    pub buckets: Vec<Bucket>,
}

impl ColumnStats {
    fn build(sampled: &mut Vec<KeyRef<'_>>, nulls_sampled: u64, total_rows: u64) -> ColumnStats {
        let sample_n = sampled.len() as f64 + nulls_sampled as f64;
        let scale = if sample_n > 0.0 { total_rows as f64 / sample_n } else { 1.0 };
        sampled.sort_unstable();
        let (mut distinct, mut singletons) = (0u64, 0u64);
        {
            let mut i = 0;
            while i < sampled.len() {
                let mut j = i + 1;
                while j < sampled.len() && sampled[j] == sampled[i] {
                    j += 1;
                }
                distinct += 1;
                if j == i + 1 {
                    singletons += 1;
                }
                i = j;
            }
        }
        // Haas–Stokes-flavoured first-order jackknife: values seen once
        // in the sample predict how many values the sample missed
        // entirely. Unsampled builds (scale == 1) reduce to the exact
        // distinct count.
        let nonnull_est = (sampled.len() as f64 * scale).max(0.0);
        let ndv = (distinct as f64 + (scale - 1.0).max(0.0) * singletons as f64)
            .clamp(distinct.min(1) as f64, nonnull_est.max(distinct as f64));
        let ndv_ratio = if distinct > 0 { (ndv / distinct as f64).max(1.0) } else { 1.0 };

        // Equi-depth buckets: close a bucket at a key boundary once it
        // holds ~1/HIST_BUCKETS of the sample.
        let mut buckets = Vec::new();
        if !sampled.is_empty() {
            let depth = (sampled.len() as f64 / HIST_BUCKETS as f64).ceil().max(1.0) as usize;
            let (mut rows_in, mut ndv_in) = (0f64, 0f64);
            let mut i = 0;
            while i < sampled.len() {
                let mut j = i + 1;
                while j < sampled.len() && sampled[j] == sampled[i] {
                    j += 1;
                }
                rows_in += (j - i) as f64;
                ndv_in += 1.0;
                if rows_in as usize >= depth || j == sampled.len() {
                    buckets.push(Bucket {
                        upper: sampled[i].to_owned_key(),
                        rows: rows_in,
                        ndv: ndv_in,
                    });
                    rows_in = 0.0;
                    ndv_in = 0.0;
                }
                i = j;
            }
        }

        ColumnStats {
            nulls: nulls_sampled as f64 * scale,
            ndv,
            ndv_ratio,
            scale,
            min: sampled.first().map(|k| k.to_owned_key()),
            max: sampled.last().map(|k| k.to_owned_key()),
            buckets,
        }
    }

    /// Fold one appended cell into the column.
    fn fold(&mut self, v: &Value) {
        let Some(key) = KeyRef::of(v) else {
            self.nulls += 1.0;
            return;
        };
        let mut outside = false;
        match &self.min {
            Some(min) if key < min.as_ref() => {
                self.min = Some(key.to_owned_key());
                outside = true;
            }
            None => {
                self.min = Some(key.to_owned_key());
                outside = true;
            }
            _ => {}
        }
        match &self.max {
            Some(max) if key > max.as_ref() => {
                self.max = Some(key.to_owned_key());
                outside = true;
            }
            None => self.max = Some(key.to_owned_key()),
            _ => {}
        }
        // A key outside the previously seen range is certainly new.
        if outside {
            self.ndv += 1.0;
        }
        // Nudge the containing (or last) bucket by one sample unit's
        // worth of rows so totals keep tracking the table.
        let idx = self
            .buckets
            .iter()
            .position(|b| key <= b.upper.as_ref())
            .or(self.buckets.len().checked_sub(1));
        if let Some(i) = idx {
            self.buckets[i].rows += 1.0 / self.scale.max(1.0);
        }
    }

    /// Estimated rows whose key falls strictly below `key` (in rows, not
    /// sample units).
    fn rows_below(&self, key: KeyRef<'_>) -> f64 {
        let mut below = 0.0;
        for b in &self.buckets {
            match key.cmp(&b.upper.as_ref()) {
                Ordering::Greater => below += b.rows,
                // Inside this bucket: assume half its mass is below.
                _ => {
                    below += b.rows / 2.0;
                    break;
                }
            }
        }
        below * self.scale
    }
}

/// Statistics for a whole table, tagged with the generation they
/// describe.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Exact row count (maintained by folds).
    pub rows: u64,
    /// Rows at build time (drift is measured against this).
    pub built_rows: u64,
    /// Rows folded in since the build.
    pub drift: u64,
    /// The table's stats-generation counter value these stats describe.
    pub generation: u64,
    /// Per-column statistics, indexed by column position.
    pub(crate) columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Build statistics over `rows` (deterministic stride sample above
    /// 4,096 rows). `ncols` covers the empty-table case.
    pub fn build(rows: &[Vec<Value>], ncols: usize, generation: u64) -> TableStats {
        let n = rows.len();
        let stride = n.div_ceil(SAMPLE_CAP).max(1);
        let mut columns = Vec::with_capacity(ncols);
        let mut keys: Vec<KeyRef<'_>> = Vec::with_capacity(n.min(SAMPLE_CAP));
        #[allow(clippy::needless_range_loop)] // `col` indexes inside each row, not `rows`
        for col in 0..ncols {
            keys.clear();
            let mut nulls = 0u64;
            let mut i = 0;
            while i < n {
                match KeyRef::of(&rows[i][col]) {
                    Some(k) => keys.push(k),
                    None => nulls += 1,
                }
                i += stride;
            }
            columns.push(ColumnStats::build(&mut keys, nulls, n as u64));
        }
        TableStats { rows: n as u64, built_rows: n as u64, drift: 0, generation, columns }
    }

    /// Fold one appended row; `generation` is the table's counter value
    /// *after* the append.
    pub fn fold_appended(&mut self, row: &[Value], generation: u64) {
        self.rows += 1;
        self.drift += 1;
        self.generation = generation;
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.fold(v);
        }
    }

    /// Folds keep totals exact but cannot reshape the histogram; past
    /// 50% growth a fresh (cheap, sampled) build beats estimating from a
    /// stale shape.
    pub fn needs_rebuild(&self) -> bool {
        (self.drift as f64) > (self.built_rows.max(64) as f64) * DRIFT_REBUILD_FRACTION
    }

    /// Estimated non-null cells in `col`.
    pub fn non_null(&self, col: usize) -> f64 {
        (self.rows as f64 - self.columns[col].nulls).max(0.0)
    }

    /// Estimated rows matching `col = value` under SQL equality.
    pub fn est_eq_rows(&self, col: usize, value: &Value) -> f64 {
        let Some(key) = KeyRef::of(value) else {
            return 0.0; // `= NULL` matches nothing
        };
        let c = &self.columns[col];
        if self.rows == 0 {
            return 0.0;
        }
        let (Some(min), Some(max)) = (&c.min, &c.max) else {
            // Column was all-NULL at build time; only drifted rows could
            // match.
            return (self.drift as f64).min(1.0);
        };
        if key < min.as_ref() || key > max.as_ref() {
            // Outside every observed key. Sampled builds can miss keys,
            // so stay minimally optimistic instead of claiming zero.
            return if c.scale > 1.0 || self.drift > 0 { 1.0 } else { 0.0 };
        }
        let in_bucket = c
            .buckets
            .iter()
            .find(|b| key <= b.upper.as_ref())
            .map(|b| (b.rows * c.scale) / (b.ndv * c.ndv_ratio).max(1.0));
        in_bucket.unwrap_or_else(|| self.non_null(col) / c.ndv.max(1.0)).max(1.0)
    }

    /// Estimated fraction of the table's rows (0..=1) satisfying
    /// `col <op> value` for a comparison operator.
    pub fn est_cmp_fraction(&self, col: usize, op: BinOp, value: &Value) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let rows = self.rows as f64;
        let Some(key) = KeyRef::of(value) else {
            return 0.0; // comparisons with NULL are never true
        };
        let c = &self.columns[col];
        let nonnull = self.non_null(col);
        let eq = self.est_eq_rows(col, value).min(nonnull);
        let below = c.rows_below(key).clamp(0.0, nonnull);
        let matching = match op {
            BinOp::Eq => eq,
            BinOp::NotEq => nonnull - eq,
            BinOp::Lt => below,
            BinOp::LtEq => (below + eq).min(nonnull),
            BinOp::Gt => (nonnull - below - eq).max(0.0),
            BinOp::GtEq => nonnull - below,
            BinOp::And | BinOp::Or => nonnull / 2.0,
        };
        (matching / rows).clamp(0.0, 1.0)
    }

    /// Estimated fraction of rows where `col` IS NULL.
    pub fn null_fraction(&self, col: usize) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        (self.columns[col].nulls / self.rows as f64).clamp(0.0, 1.0)
    }

    /// NDV estimate for a column (≥ 1 once any non-null row exists).
    pub fn ndv(&self, col: usize) -> f64 {
        self.columns[col].ndv.max(if self.non_null(col) > 0.0 { 1.0 } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(vals: &[i64]) -> Vec<Vec<Value>> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    #[test]
    fn sql_cmp_equal_values_share_a_stat_key() {
        // The superset property the histograms rely on: sql_cmp-equal
        // values always normalize to the same key.
        let tricky = [
            Value::Int(5),
            Value::Text("5".into()),
            Value::Text("05".into()),
            Value::Text(" 5".into()),
            Value::Text("x".into()),
            Value::Text("6".into()),
        ];
        for a in &tricky {
            for b in &tricky {
                if a.sql_cmp(b) == Some(Ordering::Equal) {
                    assert_eq!(KeyRef::of(a), KeyRef::of(b), "{a:?} vs {b:?}");
                }
            }
        }
        assert_eq!(KeyRef::of(&Value::Null), None);
    }

    #[test]
    fn exact_build_counts_everything() {
        let rows = int_rows(&[1, 2, 2, 3, 3, 3]);
        let ts = TableStats::build(&rows, 1, 0);
        assert_eq!(ts.rows, 6);
        assert_eq!(ts.ndv(0), 3.0);
        assert_eq!(ts.columns[0].min, Some(StatKey::Num(1)));
        assert_eq!(ts.columns[0].max, Some(StatKey::Num(3)));
        assert_eq!(ts.est_eq_rows(0, &Value::Int(3)), 3.0);
        // Coerced probe: '02' normalizes onto the numeric key.
        assert_eq!(ts.est_eq_rows(0, &Value::Text("02".into())), 2.0);
    }

    #[test]
    fn empty_and_all_null_columns() {
        let ts = TableStats::build(&[], 2, 0);
        assert_eq!(ts.est_eq_rows(0, &Value::Int(1)), 0.0);
        assert_eq!(ts.est_cmp_fraction(0, BinOp::Lt, &Value::Int(1)), 0.0);

        let rows: Vec<Vec<Value>> = (0..10).map(|_| vec![Value::Null]).collect();
        let ts = TableStats::build(&rows, 1, 0);
        assert_eq!(ts.est_eq_rows(0, &Value::Int(1)), 0.0);
        assert_eq!(ts.null_fraction(0), 1.0);
        assert_eq!(ts.non_null(0), 0.0);
    }

    #[test]
    fn sampled_ndv_tracks_unique_and_skewed_columns() {
        let n = 50_000i64;
        // Unique column: NDV should land near n, not near the sample size.
        let ts = TableStats::build(&int_rows(&(0..n).collect::<Vec<_>>()), 1, 0);
        let ndv = ts.ndv(0);
        assert!(ndv > n as f64 * 0.5 && ndv <= n as f64, "unique ndv={ndv}");
        assert!((ts.est_eq_rows(0, &Value::Int(n / 2)) - 1.0).abs() < 16.0);
        // Four-valued column: NDV must stay 4ish despite sampling.
        let ts = TableStats::build(&int_rows(&(0..n).map(|i| i % 4).collect::<Vec<_>>()), 1, 0);
        let ndv = ts.ndv(0);
        assert!((3.0..=8.0).contains(&ndv), "skewed ndv={ndv}");
        let eq = ts.est_eq_rows(0, &Value::Int(2));
        assert!(eq > n as f64 / 8.0 && eq < n as f64 / 2.0, "skewed eq={eq}");
    }

    #[test]
    fn range_fractions_are_sane() {
        let ts = TableStats::build(&int_rows(&(0..1000).collect::<Vec<_>>()), 1, 0);
        let lt = ts.est_cmp_fraction(0, BinOp::Lt, &Value::Int(100));
        assert!(lt > 0.02 && lt < 0.25, "lt fraction {lt}");
        let gt = ts.est_cmp_fraction(0, BinOp::Gt, &Value::Int(100));
        assert!((lt + gt - 1.0).abs() < 0.2, "lt {lt} + gt {gt} should cover ~everything");
        assert_eq!(ts.est_cmp_fraction(0, BinOp::Lt, &Value::Null), 0.0);
    }

    #[test]
    fn fold_tracks_growth_and_flags_rebuild() {
        let rows = int_rows(&[1, 2, 3, 4]);
        let mut ts = TableStats::build(&rows, 1, 0);
        for (i, v) in (5..=40).enumerate() {
            ts.fold_appended(&[Value::Int(v)], (i + 1) as u64);
        }
        assert_eq!(ts.rows, 40);
        assert_eq!(ts.generation, 36);
        assert_eq!(ts.columns[0].max, Some(StatKey::Num(40)));
        assert!(ts.ndv(0) > 30.0);
        assert!(ts.needs_rebuild(), "36 folds over a 4-row build is past the drift cap");

        // Small drift over a larger build is not.
        let mut ts = TableStats::build(&int_rows(&(0..200).collect::<Vec<_>>()), 1, 0);
        ts.fold_appended(&[Value::Int(7)], 1);
        assert!(!ts.needs_rebuild());
    }

    #[test]
    fn build_is_deterministic() {
        let rows: Vec<Vec<Value>> = (0..20_000)
            .map(|i| {
                vec![match i % 5 {
                    0 => Value::Null,
                    1 => Value::Text(format!("node-{}", i % 97)),
                    _ => Value::Int(i % 311),
                }]
            })
            .collect();
        assert_eq!(TableStats::build(&rows, 1, 3), TableStats::build(&rows, 1, 3));
    }
}
