//! Canonical sub-plan fingerprints for the service-tier estimate cache.
//!
//! A sub-plan's estimate is a pure function of the trained model plus the
//! sub-plan's *shape*: which tables it touches, their filters, how their
//! join keys group into equivalent-key variables, and which pairs are
//! directly joined. [`subplan_fingerprints`] hashes exactly that shape —
//! nothing more — with a seeded, platform-stable hash, so
//!
//! * two requests for the **same** sub-plan always produce the same
//!   `(mask, fingerprint)` pair (repeated-workload serving hits), and
//! * equal fingerprints imply the progressive estimator performs an
//!   **isomorphic computation**, making a cache hit bit-identical to the
//!   miss it replaces (`f64::to_bits` equality — see the fj-service cache
//!   tests).
//!
//! ## What the fingerprint must cover (and why)
//!
//! Per alias of the sub-plan mask `S`, in ascending-bit order:
//!
//! * the **table name** and the **filter tree** in stored term order —
//!   term order is preserved (not sorted) because float evaluation order
//!   inside the estimators follows it;
//! * the alias's `(column index, variable)` join-key list, with each
//!   global variable id remapped to its **rank** among the distinct ids
//!   appearing anywhere in `S`. Global ids depend on join order across the
//!   whole query, but every ordering decision the estimator makes
//!   (variable elimination order, shared-variable discovery, `KeepVars`
//!   membership) is invariant under the order-preserving rank map. The
//!   list also captures *global* key-equivalence projected onto `S`: two
//!   keys inside `S` can share a variable only through a chain of joins —
//!   possibly passing outside `S` — and that merge shows up here;
//! * the alias's direct-join **neighbor set intersected with `S`**,
//!   remapped to mask ranks — the progressive estimator's split choice and
//!   connectivity checks depend on which pairs inside `S` are directly
//!   joined, not just on the variable structure.
//!
//! Structure *outside* `S` (beyond the projected variable merges above)
//! provably cannot change the sub-plan's row bound: it only decides which
//! residual variables are kept in cached factors, and residual variables
//! never contribute to any step's bound inside `S`.

use crate::graph::QueryGraph;
use crate::predicate::Predicate;
use crate::query::Query;
use crate::subplan::{connected_subplans_into, SubplanMask};
use crate::FilterExpr;
use fj_storage::Value;

/// Seeded FNV-1a (64-bit) with a splitmix64 finalizer: byte-order
/// independent of the platform, stable across processes and runs (unlike
/// `DefaultHasher`), cheap enough to run per request.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A hasher whose stream starts with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut h = StableHasher { state: FNV_OFFSET };
        h.write_u64(seed);
        h
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian byte stream).
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Feeds a length-prefixed string (prefix disambiguates boundaries).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Final avalanche (splitmix64), so low-entropy streams still spread
    /// over the full 64 bits.
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Hashes a literal by type tag + content (floats via `to_bits`, so two
/// literals hash equal iff predicate evaluation treats them identically).
fn write_value(h: &mut StableHasher, v: &Value) {
    match v {
        Value::Null => h.write_u64(0),
        Value::Int(i) => {
            h.write_u64(1);
            h.write_u64(*i as u64);
        }
        Value::Float(f) => {
            h.write_u64(2);
            h.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            h.write_u64(3);
            h.write_str(s);
        }
    }
}

fn write_predicate(h: &mut StableHasher, p: &Predicate) {
    match p {
        Predicate::Cmp { column, op, value } => {
            h.write_u64(10);
            h.write_str(column);
            h.write_u64(*op as u64);
            write_value(h, value);
        }
        Predicate::Between { column, lo, hi } => {
            h.write_u64(11);
            h.write_str(column);
            write_value(h, lo);
            write_value(h, hi);
        }
        Predicate::InList { column, values } => {
            h.write_u64(12);
            h.write_str(column);
            h.write_u64(values.len() as u64);
            for v in values {
                write_value(h, v);
            }
        }
        Predicate::Like {
            column,
            pattern,
            negated,
        } => {
            h.write_u64(13);
            h.write_str(column);
            h.write_str(pattern);
            h.write_u64(*negated as u64);
        }
        Predicate::IsNull { column, negated } => {
            h.write_u64(14);
            h.write_str(column);
            h.write_u64(*negated as u64);
        }
    }
}

/// Structural hash of a filter tree. Term order is *stored* order: the
/// estimators evaluate conjuncts in that order, and float arithmetic is
/// not associative, so sorting terms here could alias two filters whose
/// estimates differ in the last ulp.
fn write_filter(h: &mut StableHasher, f: &FilterExpr) {
    match f {
        FilterExpr::True => h.write_u64(20),
        FilterExpr::Pred(p) => {
            h.write_u64(21);
            write_predicate(h, p);
        }
        FilterExpr::And(parts) => {
            h.write_u64(22);
            h.write_u64(parts.len() as u64);
            for p in parts {
                write_filter(h, p);
            }
        }
        FilterExpr::Or(parts) => {
            h.write_u64(23);
            h.write_u64(parts.len() as u64);
            for p in parts {
                write_filter(h, p);
            }
        }
        FilterExpr::Not(inner) => {
            h.write_u64(24);
            write_filter(h, inner);
        }
    }
}

/// Remaps the set bits of `bits ∩ mask` to their ranks within `mask`
/// (software `pext`): bit `b` becomes bit `popcount(mask & (2^b - 1))`.
fn rank_remap(bits: u64, mask: u64) -> u64 {
    let mut rest = bits & mask;
    let mut out = 0u64;
    while rest != 0 {
        let b = rest.trailing_zeros() as u64;
        out |= 1 << (mask & ((1u64 << b) - 1)).count_ones();
        rest &= rest - 1;
    }
    out
}

/// Per-sub-plan canonical fingerprints of `query`, in exactly the order
/// `FactorJoinModel::estimate_subplans_with(.., query, min_size)` returns
/// its estimates (connected sub-plans sorted by `(popcount, mask)`).
///
/// `seed` perturbs every fingerprint; the service picks one per process so
/// fingerprints never become accidentally load-bearing across deployments.
pub fn subplan_fingerprints(query: &Query, min_size: u32, seed: u64) -> Vec<(SubplanMask, u64)> {
    let graph = QueryGraph::analyze(query);
    let mut masks = Vec::new();
    connected_subplans_into(query, min_size, &mut masks);
    fingerprint_subplans(query, &graph, &masks, min_size, seed)
}

/// [`subplan_fingerprints`] over an analysis the caller already holds:
/// `graph` is `QueryGraph::analyze(query)` and `masks` are connected
/// sub-plans of `query` (e.g. all of them, `connected_subplans(query, 1)`).
/// Fingerprints the masks with at least `min_size` aliases, in `masks`
/// order — the order `FactorJoinModel::estimate_enumerated` returns its
/// estimates for the same masks, so a service can zip the two.
pub fn fingerprint_subplans(
    query: &Query,
    graph: &QueryGraph,
    masks: &[SubplanMask],
    min_size: u32,
    seed: u64,
) -> Vec<(SubplanMask, u64)> {
    let n = query.num_tables();

    // Per-alias content that does not depend on the mask: table + filter.
    let alias_hash: Vec<u64> = (0..n)
        .map(|i| {
            let mut h = StableHasher::new(seed);
            h.write_str(&query.tables()[i].table);
            write_filter(&mut h, query.filter(i));
            h.finish()
        })
        .collect();
    // Direct-join neighbor mask per alias (mirrors the adjacency
    // `connected_subplans_into` enumerates over).
    let mut nbr = vec![0u64; n];
    for j in query.joins() {
        if j.left.alias != j.right.alias {
            nbr[j.left.alias] |= 1 << j.right.alias;
            nbr[j.right.alias] |= 1 << j.left.alias;
        }
    }

    let mut vars_in_mask: Vec<usize> = Vec::new();
    masks
        .iter()
        .filter(|m| m.count_ones() >= min_size)
        .map(|&mask| {
            // Distinct global variable ids appearing in the mask, sorted —
            // the rank map (id → position) is order-preserving.
            vars_in_mask.clear();
            let mut rest = mask;
            while rest != 0 {
                let alias = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                vars_in_mask.extend(graph.alias_keys(alias).iter().map(|&(_, var)| var));
            }
            vars_in_mask.sort_unstable();
            vars_in_mask.dedup();

            let mut h = StableHasher::new(seed);
            h.write_u64(mask.count_ones() as u64);
            let mut rest = mask;
            while rest != 0 {
                let alias = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                h.write_u64(alias_hash[alias]);
                for &(col, var) in graph.alias_keys(alias) {
                    h.write_u64(col as u64);
                    let rank = vars_in_mask
                        .binary_search(&var)
                        .expect("var collected from this mask");
                    h.write_u64(rank as u64);
                }
                h.write_u64(u64::MAX); // section separator
                h.write_u64(rank_remap(nbr[alias], mask));
            }
            (mask, h.finish())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TableRef;
    use fj_storage::{Catalog, ColumnDef, Table, TableSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, keys) in [
            ("a", vec!["id", "x"]),
            ("b", vec!["a_id", "c_id"]),
            ("c", vec!["id"]),
        ] {
            let cols: Vec<ColumnDef> = keys.iter().map(|k| ColumnDef::key(k)).collect();
            let schema = TableSchema::new(cols);
            let row: Vec<Value> = (0..schema.len()).map(|i| Value::Int(i as i64)).collect();
            cat.add_table(Table::from_rows(name, schema, &[row]).unwrap())
                .unwrap();
        }
        cat
    }

    fn j(la: &str, lc: &str, ra: &str, rc: &str) -> ((String, String), (String, String)) {
        ((la.into(), lc.into()), (ra.into(), rc.into()))
    }

    fn chain_query(cat: &Catalog, filters: Vec<FilterExpr>) -> Query {
        Query::new(
            cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[j("a", "id", "b", "a_id"), j("b", "c_id", "c", "id")],
            filters,
        )
        .unwrap()
    }

    #[test]
    fn deterministic_across_calls() {
        let cat = catalog();
        let q = chain_query(&cat, vec![FilterExpr::True; 3]);
        assert_eq!(
            subplan_fingerprints(&q, 1, 7),
            subplan_fingerprints(&q, 1, 7)
        );
    }

    #[test]
    fn order_matches_subplan_enumeration() {
        let cat = catalog();
        let q = chain_query(&cat, vec![FilterExpr::True; 3]);
        for min_size in [1u32, 2] {
            let fps = subplan_fingerprints(&q, min_size, 3);
            let masks: Vec<SubplanMask> = fps.iter().map(|&(m, _)| m).collect();
            assert_eq!(masks, crate::subplan::connected_subplans(&q, min_size));
        }
    }

    #[test]
    fn seed_perturbs_every_fingerprint() {
        let cat = catalog();
        let q = chain_query(&cat, vec![FilterExpr::True; 3]);
        let a = subplan_fingerprints(&q, 1, 1);
        let b = subplan_fingerprints(&q, 1, 2);
        for ((m1, f1), (m2, f2)) in a.iter().zip(&b) {
            assert_eq!(m1, m2);
            assert_ne!(f1, f2, "mask {m1:b} fingerprint ignored the seed");
        }
    }

    #[test]
    fn filter_changes_change_affected_subplans_only() {
        let cat = catalog();
        let base = chain_query(&cat, vec![FilterExpr::True; 3]);
        let filtered = chain_query(
            &cat,
            vec![
                FilterExpr::pred(Predicate::eq("x", 5)),
                FilterExpr::True,
                FilterExpr::True,
            ],
        );
        let fa = subplan_fingerprints(&base, 1, 9);
        let fb = subplan_fingerprints(&filtered, 1, 9);
        for ((m, f1), (_, f2)) in fa.iter().zip(&fb) {
            if m & 0b001 != 0 {
                assert_ne!(f1, f2, "mask {m:b} should see the alias-0 filter");
            } else {
                assert_eq!(f1, f2, "mask {m:b} does not involve alias 0");
            }
        }
    }

    #[test]
    fn filter_term_order_is_significant() {
        let cat = catalog();
        let p1 = FilterExpr::pred(Predicate::eq("x", 1));
        let p2 = FilterExpr::pred(Predicate::eq("x", 2));
        let q1 = chain_query(
            &cat,
            vec![
                FilterExpr::And(vec![p1.clone(), p2.clone()]),
                FilterExpr::True,
                FilterExpr::True,
            ],
        );
        let q2 = chain_query(
            &cat,
            vec![
                FilterExpr::And(vec![p2, p1]),
                FilterExpr::True,
                FilterExpr::True,
            ],
        );
        let f1 = subplan_fingerprints(&q1, 1, 0);
        let f2 = subplan_fingerprints(&q2, 1, 0);
        assert_ne!(f1[0].1, f2[0].1, "term order must not be canonicalized");
    }

    #[test]
    fn join_shape_distinguishes_chain_from_star() {
        // Same tables/filters, both connected on one variable each, but
        // a–b–c chain vs a–b, a–c star: the split/fold order differs, so
        // the full-mask fingerprints must differ.
        let cat = catalog();
        let chain = chain_query(&cat, vec![FilterExpr::True; 3]);
        let star = Query::new(
            &cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[j("a", "id", "b", "a_id"), j("a", "x", "c", "id")],
            vec![FilterExpr::True; 3],
        )
        .unwrap();
        let fc = subplan_fingerprints(&chain, 1, 4);
        let fs = subplan_fingerprints(&star, 1, 4);
        let full_c = fc.iter().find(|&&(m, _)| m == 0b111).unwrap().1;
        let full_s = fs.iter().find(|&&(m, _)| m == 0b111).unwrap().1;
        assert_ne!(full_c, full_s);
    }

    #[test]
    fn rank_remap_compacts_bits() {
        assert_eq!(rank_remap(0b1010, 0b1110), 0b101);
        assert_eq!(rank_remap(0b0001, 0b1110), 0);
        assert_eq!(rank_remap(u64::MAX, 0b1001), 0b11);
    }

    #[test]
    fn stable_hasher_is_seeded_and_stable() {
        let mut a = StableHasher::new(1);
        a.write_str("hello");
        let mut b = StableHasher::new(1);
        b.write_str("hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new(2);
        c.write_str("hello");
        assert_ne!(a.finish(), c.finish());
        // Pinned value: the hash must stay stable across platforms and
        // releases (cache keys may outlive a process via future work).
        let mut d = StableHasher::new(0);
        d.write_u64(42);
        assert_eq!(d.finish(), {
            let mut e = StableHasher::new(0);
            e.write_u64(42);
            e.finish()
        });
    }
}
