//! Filter decomposition into per-column clauses ("evidence").
//!
//! The Bayesian-network estimator treats a filter as *evidence* on the
//! network's nodes: a per-column weight vector over that column's discrete
//! codes. This is possible exactly when the filter is a conjunction of
//! clauses that each reference a single column (disjunctions/negations
//! *inside* a clause are fine — they still induce a code-weight vector).
//! [`split_per_column`] performs the decomposition; [`clause_weights`]
//! evaluates a clause against a discretized column. The estimator's hot
//! path walks the same decomposition in place (`ColumnClauses`), borrowing
//! the clauses instead of cloning them.

use crate::discretize::DiscreteColumn;
use fj_query::FilterExpr;
use fj_storage::Value;

/// Splits `filter` into per-column clauses if it is a conjunction of
/// single-column sub-expressions; returns `None` for cross-column
/// disjunctions (which the BN estimator cannot express as evidence).
/// Clauses on the same column are merged with AND, in first-reference
/// order.
pub fn split_per_column(filter: &FilterExpr) -> Option<Vec<(String, FilterExpr)>> {
    if !is_per_column(filter) {
        return None;
    }
    let mut clauses: Vec<(String, FilterExpr)> = Vec::new();
    visit_clauses(
        filter,
        &mut |col, clause| match clauses.iter_mut().find(|(c, _)| c == col) {
            Some(entry) => {
                let merged = std::mem::replace(&mut entry.1, FilterExpr::True);
                entry.1 = FilterExpr::and(vec![merged, clause.clone()]);
            }
            None => clauses.push((col.to_string(), clause.clone())),
        },
    );
    Some(clauses)
}

/// Whether `filter` is a conjunction of single-column clauses — the shape
/// [`split_per_column`] accepts — checked without allocating.
pub(crate) fn is_per_column(filter: &FilterExpr) -> bool {
    visit_clauses(filter, &mut |_, _| {})
}

/// Calls `f(column, clause)` for every single-column conjunct of `filter`,
/// in conjunction order, skipping conjuncts that reference no column.
/// Returns `false`, having stopped early, at the first conjunct that
/// references several columns.
pub(crate) fn visit_clauses<'f>(
    filter: &'f FilterExpr,
    f: &mut impl FnMut(&'f str, &'f FilterExpr),
) -> bool {
    match filter {
        FilterExpr::True => true,
        FilterExpr::And(parts) => parts.iter().all(|p| visit_clauses(p, f)),
        clause => {
            let mut col = None;
            if !single_column(clause, &mut col) {
                return false;
            }
            if let Some(col) = col {
                f(col, clause);
            }
            true
        }
    }
}

/// Records the first column `expr` references in `col`; `false` once a
/// second, different column appears.
fn single_column<'f>(expr: &'f FilterExpr, col: &mut Option<&'f str>) -> bool {
    match expr {
        FilterExpr::True => true,
        FilterExpr::Pred(p) => match *col {
            None => {
                *col = Some(p.column());
                true
            }
            Some(c) => c == p.column(),
        },
        FilterExpr::And(parts) | FilterExpr::Or(parts) => {
            parts.iter().all(|e| single_column(e, col))
        }
        FilterExpr::Not(inner) => single_column(inner, col),
    }
}

/// The clauses evidence on one column is built from; the evidence is
/// their AND.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColumnClauses<'f> {
    /// A single clause, taken whole.
    One(&'f FilterExpr),
    /// The conjuncts of a per-column `filter` that reference `column`.
    Of {
        filter: &'f FilterExpr,
        column: &'f str,
    },
}

impl<'f> ColumnClauses<'f> {
    /// Calls `f` on each clause, in conjunction order.
    pub(crate) fn for_each(self, mut f: impl FnMut(&'f FilterExpr)) {
        match self {
            ColumnClauses::One(clause) => f(clause),
            ColumnClauses::Of { filter, column } => {
                visit_clauses(filter, &mut |col, clause| {
                    if col == column {
                        f(clause);
                    }
                });
            }
        }
    }

    /// The first clause (`None` when the column has none).
    pub(crate) fn first(self) -> Option<&'f FilterExpr> {
        let mut first = None;
        self.for_each(|clause| {
            first.get_or_insert(clause);
        });
        first
    }

    /// Whether every clause holds for the value `v`.
    pub(crate) fn eval_on(self, v: &Value) -> bool {
        let mut all = true;
        self.for_each(|clause| all &= clause.eval_on(v));
        all
    }

    /// Whether the clauses consist only of NULL tests.
    pub(crate) fn only_null_tests(self) -> bool {
        fn only_null(e: &FilterExpr) -> bool {
            match e {
                FilterExpr::True => true,
                FilterExpr::Pred(p) => matches!(p, fj_query::Predicate::IsNull { .. }),
                FilterExpr::And(parts) | FilterExpr::Or(parts) => parts.iter().all(only_null),
                FilterExpr::Not(inner) => only_null(inner),
            }
        }
        let mut all = true;
        self.for_each(|clause| all &= only_null(clause));
        all
    }
}

/// Evaluates a single-column clause against a discretized column, returning
/// the expected satisfaction weight of each code in `[0, 1]`.
///
/// For exact codes (categorical values, key bins of size 1, dictionary
/// strings) the weight is 0 or 1; for range-bucketized numerics boundary
/// buckets get fractional coverage estimated under within-bucket uniformity.
pub fn clause_weights(col: &DiscreteColumn, clause: &FilterExpr) -> Vec<f64> {
    col.clause_weights(clause)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::{CmpOp, Predicate};

    fn pred(col: &str, v: i64) -> FilterExpr {
        FilterExpr::pred(Predicate::eq(col, v))
    }

    #[test]
    fn conjunction_splits_by_column() {
        let f = FilterExpr::and(vec![
            pred("a", 1),
            pred("b", 2),
            FilterExpr::pred(Predicate::cmp("a", CmpOp::Lt, 10)),
        ]);
        let clauses = split_per_column(&f).unwrap();
        assert_eq!(clauses.len(), 2);
        assert_eq!(clauses[0].0, "a");
        assert_eq!(
            clauses[0].1.num_predicates(),
            2,
            "same-column clauses merged"
        );
        assert_eq!(clauses[1].0, "b");
    }

    #[test]
    fn same_column_disjunction_is_supported() {
        let f = FilterExpr::or(vec![pred("a", 1), pred("a", 2)]);
        let clauses = split_per_column(&f).unwrap();
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].0, "a");
    }

    #[test]
    fn cross_column_disjunction_is_rejected() {
        let f = FilterExpr::or(vec![pred("a", 1), pred("b", 2)]);
        assert!(split_per_column(&f).is_none());
        assert!(!is_per_column(&f));
    }

    #[test]
    fn trivial_filter_yields_no_clauses() {
        assert_eq!(split_per_column(&FilterExpr::True).unwrap().len(), 0);
    }

    #[test]
    fn nested_not_single_column_ok() {
        let f = FilterExpr::Not(Box::new(pred("a", 3)));
        let clauses = split_per_column(&f).unwrap();
        assert_eq!(clauses.len(), 1);
    }
}
