//! The cost model: abstract prices for the executor's physical
//! operators, in arbitrary "work units" calibrated so one sequentially
//! enumerated row costs 1.0.
//!
//! The planner (`plan.rs`) uses these to compare *relative* plan costs —
//! scan vs. index probe for access, one join key against another, and
//! alternative join orders. Absolute accuracy does not matter; ordering
//! accuracy does. The choices are pinned as exact `rows_examined` counts
//! at 2k/10k/50k rows (`tests/stats_estimator.rs`); their wall-clock cost
//! is the benchmark ledger's `sql.exec.*` metrics on `admin-query`.
//!
//! Three modelling decisions worth calling out:
//!
//! * **Cold builds are amortized.** A hash index that is not yet built
//!   costs `rows · rate / BUILD_AMORTIZE`: indexes are cached on the
//!   table and plans are cached per statement, so one build typically
//!   serves many executions. Charging builds in full would make a large
//!   text index unreachable (the cold plan scans, gets cached, and the
//!   index never warms); warm structures cost nothing extra.
//! * **Text hash entries cost ~4× int entries.** Building a
//!   [`crate::index::HashIndex`] over text clones each string and
//!   inserts integer-shaped text under two buckets; ints are a single
//!   cheap insert.
//! * **A join pays for raw candidates.** The hash-join side probes the
//!   table's *unfiltered* per-table index, so every probe drags in raw
//!   candidates that pushed filters then discard one by one. Among
//!   several connecting equalities the planner therefore joins on the
//!   one whose probes fetch the fewest raw candidates (rows / NDV of the
//!   probed column), plus its amortized build if the index is cold.

use crate::table::ColumnType;

/// Enumerate one row sequentially (the scan baseline).
pub(crate) const SCAN_ROW: f64 = 1.0;
/// Evaluate one pushed-down filter conjunct against one row.
pub(crate) const FILTER_EVAL: f64 = 1.0;
/// One hash-index probe (hash + bucket lookup).
pub(crate) const PROBE: f64 = 3.0;
/// Fetch one index candidate and re-verify it with `sql_cmp`.
pub(crate) const CANDIDATE: f64 = 1.5;
/// Extend/allocate one intermediate tuple.
pub(crate) const TUPLE: f64 = 0.8;
/// Insert one int cell into a cold hash index.
pub(crate) const HASH_BUILD_INT: f64 = 1.5;
/// Insert one text cell into a cold hash index (clone + up to two
/// bucket inserts).
pub(crate) const HASH_BUILD_TEXT: f64 = 6.0;
/// Expected executions sharing one cold build (indexes are cached on
/// the table, plans in the statement cache).
pub(crate) const BUILD_AMORTIZE: f64 = 32.0;

/// Amortized cost of building a hash index over `rows` cells of
/// declared type `ty`, or 0 when it is already built.
pub(crate) fn index_build_cost(rows: f64, ty: ColumnType, warm: bool) -> f64 {
    if warm {
        return 0.0;
    }
    rows * match ty {
        ColumnType::Int => HASH_BUILD_INT,
        ColumnType::Text => HASH_BUILD_TEXT,
    } / BUILD_AMORTIZE
}

/// Cost of scanning a table: enumerate every row, evaluate every pushed
/// filter against it.
pub(crate) fn scan_access_cost(rows: f64, filters: usize) -> f64 {
    rows * (SCAN_ROW + filters as f64 * FILTER_EVAL)
}

/// Cost of an index point access: one probe, then verify each candidate
/// and run the pushed filters over it. The probing conjunct stays in the
/// filters and is charged here even though the executor skips it when
/// the probe is exact (anything but integer-shaped text). The model keeps
/// that charge on purpose, so no plan choice moves, until its constants
/// are calibrated from measurements (ROADMAP item 2).
pub(crate) fn index_access_cost(candidates: f64, filters: usize, build: f64) -> f64 {
    build + PROBE + candidates * (CANDIDATE + filters as f64 * FILTER_EVAL)
}

/// Cost of hash-joining `left_tuples` accumulated tuples against a
/// table, probing its (possibly cold) index: one probe per tuple, then
/// verification + filters per raw candidate.
pub(crate) fn hash_join_cost(
    left_tuples: f64,
    candidates_total: f64,
    filters: usize,
    build: f64,
) -> f64 {
    build + left_tuples * PROBE + candidates_total * (CANDIDATE + filters as f64 * FILTER_EVAL)
}

/// Cost of producing `n` output tuples from any operator.
pub(crate) fn emit_cost(n: f64) -> f64 {
    n * TUPLE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_beats_index_for_broad_predicates() {
        // 90% of 100k rows match: scanning is cheaper than probing and
        // verifying 90k candidates.
        let scan = scan_access_cost(100_000.0, 1);
        let index = index_access_cost(90_000.0, 1, 0.0);
        assert!(scan < index, "scan {scan} vs index {index}");
        // 0.1% match: the index wins, amortized cold build included.
        let build = index_build_cost(100_000.0, ColumnType::Text, false);
        let index = index_access_cost(100.0, 1, build);
        assert!(index < scan, "selective point lookup should probe: {index} vs {scan}");
        let warm = index_access_cost(100.0, 1, 0.0);
        assert!(warm < index, "a cold build is still not free");
        // The flip point in matched rows scales with table size.
        for n in [10_000.0, 100_000.0, 1_000_000.0] {
            let scan = scan_access_cost(n, 1);
            let build = index_build_cost(n, ColumnType::Text, false);
            assert!(index_access_cost(0.5 * n, 1, build) < scan, "50% match probes at n={n}");
            assert!(index_access_cost(0.9 * n, 1, build) > scan, "90% match scans at n={n}");
        }
    }
}
