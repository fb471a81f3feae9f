//! Uniform-sampling single-table estimator.
//!
//! The paper uses "traditional random sampling" as one of the two base
//! estimators (§3.3) — it is the one used for IMDB-JOB because it supports
//! arbitrary filter shapes: disjunctions, `LIKE`, NULL tests, anything the
//! row-level evaluator can decide. The estimator materializes a uniform
//! sample as its own small [`Table`], compiles each query's filter against
//! the sample once, and scales counts by the inverse sampling fraction.

use crate::binmap::TableBins;
use crate::traits::{BaseTableEstimator, TableProfile};
use fj_query::{compile_filter, FilterExpr};
use fj_storage::Table;
use std::collections::HashMap;

/// Sampling-based estimator for one table.
#[derive(Clone)]
pub struct SamplingEstimator {
    sample: Table,
    /// Per sampled row, per key column: the bin index (or `None` for NULL).
    key_bins_per_row: HashMap<String, Vec<Option<u32>>>,
    bins: TableBins,
    base_rows: f64,
    rate: f64,
    seed: u64,
}

impl SamplingEstimator {
    /// Minimum sample size: small (dimension) tables are kept whole, as
    /// real systems do — a 1% sample of a 7-row table would zero out most
    /// of the key domain and poison every bound that joins through it.
    pub const MIN_SAMPLE_ROWS: usize = 100;

    /// Builds a sampler over `table` with sampling fraction `rate`,
    /// deterministic in `seed`. The sample is systematic (seeded offset +
    /// stride), which is unbiased for our purposes and reproducible.
    pub fn build(table: &Table, bins: &TableBins, rate: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        let n = table.nrows();
        let rate = if n > 0 {
            rate.max((Self::MIN_SAMPLE_ROWS as f64 / n as f64).min(1.0))
        } else {
            rate
        };
        let stride = (1.0 / rate).max(1.0);
        let offset = (seed % stride.ceil() as u64) as f64;
        let mut rows = Vec::with_capacity((n as f64 * rate) as usize + 1);
        let mut pos = offset;
        while (pos as usize) < n {
            rows.push(pos as usize);
            pos += stride;
        }
        if rows.is_empty() && n > 0 {
            rows.push(0);
        }
        let sample = table.select_rows(table.name(), &rows);
        let mut est = SamplingEstimator {
            sample,
            key_bins_per_row: HashMap::new(),
            bins: bins.clone(),
            base_rows: n as f64,
            rate,
            seed,
        };
        est.rebin();
        est
    }

    /// (Re)computes per-row bin ids for each binned key column.
    fn rebin(&mut self) {
        self.key_bins_per_row.clear();
        for (col_name, map) in self.bins.iter() {
            let Some(ci) = self.sample.schema().index_of(col_name) else {
                continue;
            };
            let col = self.sample.column(ci);
            let per_row: Vec<Option<u32>> = (0..self.sample.nrows())
                .map(|r| col.key_at(r).map(|v| map.bin_of(v) as u32))
                .collect();
            self.key_bins_per_row.insert(col_name.clone(), per_row);
        }
    }

    /// Scale factor from sample counts to table counts.
    fn scale(&self) -> f64 {
        if self.sample.nrows() == 0 {
            0.0
        } else {
            self.base_rows / self.sample.nrows() as f64
        }
    }

    /// Number of sampled rows (diagnostic).
    pub fn sample_rows(&self) -> usize {
        self.sample.nrows()
    }
}

impl BaseTableEstimator for SamplingEstimator {
    fn name(&self) -> &'static str {
        "sampling"
    }

    fn estimate_filter(&self, filter: &FilterExpr) -> f64 {
        let compiled = compile_filter(&self.sample, filter);
        let mut hits = 0u64;
        for i in 0..self.sample.nrows() {
            if compiled.eval(&self.sample, i) {
                hits += 1;
            }
        }
        hits as f64 * self.scale()
    }

    fn key_distribution(&self, key_col: &str, filter: &FilterExpr) -> Vec<f64> {
        self.profile(filter, &[key_col])
            .key_dists
            .pop()
            .expect("one key requested")
    }

    fn key_bins(&self, key_col: &str) -> usize {
        self.bins.get(key_col).map(|m| m.k()).unwrap_or(1)
    }

    fn profile(&self, filter: &FilterExpr, key_cols: &[&str]) -> TableProfile {
        let compiled = compile_filter(&self.sample, filter);
        let mut dists: Vec<Vec<f64>> = key_cols
            .iter()
            .map(|k| vec![0.0; self.key_bins(k)])
            .collect();
        let bin_rows: Vec<Option<&Vec<Option<u32>>>> = key_cols
            .iter()
            .map(|k| self.key_bins_per_row.get(*k))
            .collect();
        let mut hits = 0u64;
        for i in 0..self.sample.nrows() {
            if !compiled.eval(&self.sample, i) {
                continue;
            }
            hits += 1;
            for (d, br) in dists.iter_mut().zip(&bin_rows) {
                if let Some(rows) = br {
                    if let Some(b) = rows[i] {
                        d[b as usize] += 1.0;
                    }
                }
            }
        }
        let s = self.scale();
        for d in &mut dists {
            for x in d.iter_mut() {
                *x *= s;
            }
        }
        TableProfile {
            rows: hits as f64 * s,
            key_dists: dists,
            ..TableProfile::default()
        }
    }

    fn clone_box(&self) -> Box<dyn BaseTableEstimator> {
        Box::new(self.clone())
    }

    fn insert(&mut self, table: &Table, first_new_row: usize) {
        // Extend the sample systematically over the inserted suffix, then
        // recompute bin ids (new values may hash into fallback bins).
        let n = table.nrows();
        let stride = (1.0 / self.rate).max(1.0);
        let offset = (self.seed % stride.ceil() as u64) as f64;
        let mut new_rows = Vec::new();
        let mut pos = first_new_row as f64 + offset;
        while (pos as usize) < n {
            new_rows.push(table.row(pos as usize));
            pos += stride;
        }
        if !new_rows.is_empty() {
            self.sample
                .append_rows(&new_rows)
                .expect("schema-compatible rows");
        }
        self.base_rows = n as f64;
        self.rebin();
    }

    fn model_bytes(&self) -> usize {
        self.sample.heap_bytes()
            + self
                .key_bins_per_row
                .values()
                .map(|v| v.len() * 5)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::KeyBinMap;
    use fj_query::{CmpOp, Predicate};
    use fj_storage::{ColumnDef, DataType, TableSchema, Value};

    fn table(n: usize) -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("x", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| {
                let id = if i % 10 == 9 {
                    Value::Null
                } else {
                    Value::Int(i % 50)
                };
                vec![id, Value::Int(i % 100)]
            })
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    fn bins_for(k: usize) -> TableBins {
        let mut tb = TableBins::new();
        let map: HashMap<i64, u32> = (0..50).map(|v| (v, (v % k as i64) as u32)).collect();
        tb.insert("id", KeyBinMap::new(k, map));
        tb
    }

    #[test]
    fn full_rate_sampling_is_exact() {
        let t = table(1000);
        let est = SamplingEstimator::build(&t, &bins_for(5), 1.0, 7);
        assert_eq!(est.sample_rows(), 1000);
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 50));
        assert_eq!(est.estimate_filter(&f), 500.0);
    }

    #[test]
    fn subsample_estimates_within_tolerance() {
        let t = table(5000);
        let est = SamplingEstimator::build(&t, &bins_for(5), 0.2, 3);
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 30));
        let exact = 5000.0 * 0.3;
        let got = est.estimate_filter(&f);
        assert!(
            (got - exact).abs() / exact < 0.15,
            "estimate {got} vs exact {exact}"
        );
    }

    #[test]
    fn key_distribution_sums_to_non_null_rows() {
        let t = table(1000);
        let est = SamplingEstimator::build(&t, &bins_for(5), 1.0, 7);
        let d = est.key_distribution("id", &FilterExpr::True);
        assert_eq!(d.len(), 5);
        let sum: f64 = d.iter().sum();
        // 10% of ids are NULL.
        assert_eq!(sum, 900.0);
    }

    #[test]
    fn profile_matches_individual_calls() {
        let t = table(2000);
        let est = SamplingEstimator::build(&t, &bins_for(4), 0.5, 1);
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Ge, 40));
        let p = est.profile(&f, &["id"]);
        assert_eq!(p.rows, est.estimate_filter(&f));
        assert_eq!(p.key_dists[0], est.key_distribution("id", &f));
    }

    #[test]
    fn supports_disjunctions_and_like_shapes() {
        // The sampler must handle shapes the BN cannot.
        let schema = TableSchema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("s", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::Int(i % 10),
                    Value::Str(if i % 2 == 0 {
                        "even x".into()
                    } else {
                        "odd y".into()
                    }),
                ]
            })
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let est = SamplingEstimator::build(&t, &TableBins::new(), 1.0, 0);
        let f = FilterExpr::or(vec![
            FilterExpr::pred(Predicate::eq("a", 3)),
            FilterExpr::pred(Predicate::like("s", "%even%")),
        ]);
        // 50 evens + 10 rows with a=3 (i%10==3, all odd) = 60.
        assert_eq!(est.estimate_filter(&f), 60.0);
    }

    #[test]
    fn insert_extends_sample_and_scale() {
        let mut t = table(1000);
        let mut est = SamplingEstimator::build(&t, &bins_for(5), 0.5, 3);
        let before = est.estimate_filter(&FilterExpr::True);
        assert!((before - 1000.0).abs() < 3.0);
        let new_rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::Int(i % 50), Value::Int(5)])
            .collect();
        t.append_rows(&new_rows).unwrap();
        est.insert(&t, 1000);
        let after = est.estimate_filter(&FilterExpr::True);
        assert!((after - 1500.0).abs() < 5.0, "after insert {after}");
        // The x=5 mass grew substantially.
        let f5 = est.estimate_filter(&FilterExpr::pred(Predicate::eq("x", 5)));
        assert!(f5 > 400.0, "x=5 estimate {f5}");
    }

    #[test]
    fn model_bytes_scales_with_rate() {
        let t = table(4000);
        let small = SamplingEstimator::build(&t, &bins_for(5), 0.05, 3);
        let large = SamplingEstimator::build(&t, &bins_for(5), 0.5, 3);
        assert!(large.model_bytes() > 4 * small.model_bytes());
    }

    #[test]
    fn deterministic_given_seed() {
        let t = table(3000);
        let a = SamplingEstimator::build(&t, &bins_for(5), 0.1, 11);
        let b = SamplingEstimator::build(&t, &bins_for(5), 0.1, 11);
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 37));
        assert_eq!(a.estimate_filter(&f), b.estimate_filter(&f));
    }
}
