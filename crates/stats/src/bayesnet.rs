//! Tree-structured Bayesian-network estimator (BayesCard stand-in).
//!
//! Build phase (paper §5.1): discretize every modeled column (join keys at
//! bin granularity, attributes into ≤ `max_codes` codes, NULL as a code),
//! learn a Chow-Liu tree from pairwise mutual information, and store CPTs
//! as smoothed counts, plus each node's unconditional marginal (its
//! *prior*). Query phase: a filter becomes per-node *evidence weights*
//! (fraction of each code satisfying the clause) and exact belief
//! propagation yields the evidence probability (filter selectivity) and
//! the conditional marginal of every requested node — in particular
//! `P(key bin | filter)`, which is exactly what the factor graph needs.
//!
//! Propagation touches only the part of the forest the query needs. Per
//! tree, let `top` be the lowest common ancestor of the evidence nodes and
//! the targets. Everything the evidence says about `top` arrives from
//! below, so the upward (λ) pass runs only inside `top`'s subtree, and any
//! node whose subtree holds all of its tree's evidence has belief
//! `prior ⊙ λ` directly. The downward pass steps only into target-path
//! nodes with evidence outside their own subtree; a `TRUE`-filter profile
//! is a copy of the priors.

use crate::binmap::TableBins;
use crate::chowliu::chow_liu_tree_threads;
use crate::discretize::{DiscreteColumn, Discretizer};
use crate::evidence::{is_per_column, visit_clauses, ColumnClauses};
use crate::traits::{BaseTableEstimator, TableProfile};
use fj_query::FilterExpr;
use fj_storage::Table;

/// Bayesian-network build configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnConfig {
    /// Maximum non-null codes per attribute column.
    pub max_codes: usize,
    /// Rows used for mutual-information estimation (strided sample).
    pub mi_sample_rows: usize,
    /// Laplace smoothing added to every count cell.
    pub alpha: f64,
    /// Selectivity factor applied per filter conjunct the network cannot
    /// express as evidence (cross-column disjunctions). A crude constant,
    /// mirroring how real systems punt on unsupported predicates.
    pub fallback_selectivity: f64,
    /// Worker threads for the pairwise mutual-information sweep of
    /// structure learning (1 = serial; the learned tree is identical for
    /// every thread count). Model training already fans out one task per
    /// *table*, so per-network parallelism stays off by default — raise it
    /// when building a single wide-table network on its own.
    pub threads: usize,
}

impl Default for BnConfig {
    fn default() -> Self {
        BnConfig {
            max_codes: 64,
            mi_sample_rows: 20_000,
            alpha: 0.1,
            fallback_selectivity: 0.25,
            threads: 1,
        }
    }
}

/// Dense dot product with four independent accumulators, so the reduction
/// carries no loop-carried dependency and autovectorizes. Used by the
/// downward belief-propagation pass and the prior computation, whose rows
/// are `max_codes`-wide.
#[inline]
fn dot_chunked(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let tail: f64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(&x, &y)| x * y)
        .sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Per-node flag bits of [`PropScratch::flags`].
const EV: u8 = 1; // the filter puts evidence on the node
const TARGET: u8 = 2; // a requested key column
const UP: u8 = 4; // λ computed (evidence below, inside `top`'s subtree)
const NEED: u8 = 8; // belief computed
/// "No node" in the per-node index buffers.
const NONE: usize = usize::MAX;

/// Evidence and belief-propagation buffers of one caller, owned by its
/// [`TableProfile`]. Per-code buffers are flat, laid out by the profiled
/// network's offsets; every buffer is sized to the largest network seen,
/// so a worker that profiles many tables stops growing once it has met
/// each. Validity is tracked by the per-node flags, so nothing is cleared
/// between profiles but the flags and counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct PropScratch {
    /// Evidence weights per code (valid where `EV` is set).
    ev: Vec<f64>,
    /// Upward λ per code (valid where `UP` is set).
    lambda: Vec<f64>,
    /// Message of each `UP` node below `top` to its parent.
    msg: Vec<f64>,
    /// `P(node = c, evidence)` per code (valid where `NEED` is set).
    belief: Vec<f64>,
    /// One node's worth of temporary weights (π with a child's message
    /// divided out; a second clause group's evidence).
    tmp: Vec<f64>,
    /// `EV | TARGET | UP | NEED` bits per node.
    flags: Vec<u8>,
    /// Evidence nodes in each node's subtree.
    ev_below: Vec<u32>,
    /// Evidence-or-target nodes in each node's subtree.
    marked_below: Vec<u32>,
    /// Per tree, by root: the lowest common ancestor of its evidence and
    /// targets (`NONE` for an unmarked tree).
    top: Vec<usize>,
    /// Per tree, by root: the evidence probability of that tree's evidence.
    tree_p: Vec<f64>,
    /// Node of each requested key column (`NONE` when unmodeled).
    key_node: Vec<usize>,
    /// Buffer growth events (see [`TableProfile::grow_events`]).
    pub(crate) grow_events: u64,
}

/// Grows `v` to at least `n` entries, counting each reallocation.
fn ensure<T: Clone>(v: &mut Vec<T>, n: usize, fill: T, grow_events: &mut u64) {
    if v.len() < n {
        if v.capacity() < n {
            *grow_events += 1;
        }
        v.resize(n, fill);
    }
}

impl PropScratch {
    /// Sizes the buffers for `bn` and clears the per-node state.
    fn begin(&mut self, bn: &BayesNetEstimator, keys: usize) {
        let m = bn.cols.len();
        let codes = bn.off[m];
        let g = &mut self.grow_events;
        ensure(&mut self.ev, codes, 0.0, g);
        ensure(&mut self.lambda, codes, 0.0, g);
        ensure(&mut self.belief, codes, 0.0, g);
        ensure(&mut self.msg, bn.msg_off[m], 0.0, g);
        ensure(&mut self.tmp, bn.max_k, 0.0, g);
        ensure(&mut self.flags, m, 0, g);
        ensure(&mut self.ev_below, m, 0, g);
        ensure(&mut self.marked_below, m, 0, g);
        ensure(&mut self.top, m, NONE, g);
        ensure(&mut self.tree_p, m, 1.0, g);
        if self.key_node.capacity() < keys {
            *g += 1;
        }
        self.key_node.clear();
        self.flags[..m].fill(0);
    }
}

/// A Bayesian-network estimator bound to one table. Immutable once built
/// (apart from [`BaseTableEstimator::insert`]), so one estimator serves any
/// number of concurrent callers, each with its own [`TableProfile`].
#[derive(Clone)]
pub struct BayesNetEstimator {
    cols: Vec<DiscreteColumn>,
    /// Node ids sorted by column name (see [`Self::node`]).
    by_name: Vec<usize>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Root of each node's tree.
    root_of: Vec<usize>,
    /// Roots, in topological order.
    roots: Vec<usize>,
    /// Node i's codes occupy `off[i]..off[i + 1]` of the flat per-code
    /// buffers (priors and scratch).
    off: Vec<usize>,
    /// Non-root node i's message to its parent occupies
    /// `msg_off[i]..msg_off[i + 1]` of the flat message buffer.
    msg_off: Vec<usize>,
    /// Largest code count of any node.
    max_k: usize,
    /// Marginal counts per node (unsmoothed).
    marginal: Vec<Vec<f64>>,
    /// For non-root node i: joint counts `[code_i * k_parent + code_parent]`.
    joint: Vec<Option<Vec<f64>>>,
    /// For non-root node i: per-parent-code column sums of `joint[i]`
    /// (cached CPT normalizers — recomputing them per cell is O(k³)).
    joint_parent_total: Vec<Option<Vec<f64>>>,
    /// For non-root node i: the smoothed CPT `P(c | p)` flattened as
    /// `[c * k_parent + p]` — precomputed at build/insert time so belief
    /// propagation multiplies instead of re-deriving each cell.
    cpt_flat: Vec<Vec<f64>>,
    /// Every node's unconditional marginal `P(node = c)`, flat at `off`:
    /// the smoothed root marginals pushed down the CPTs. Derived state —
    /// refreshed with the CPTs on build and every insert, never persisted.
    prior: Vec<f64>,
    /// Topological order, parents before children (breadth-first, so
    /// depth never decreases along it).
    topo: Vec<usize>,
    nrows: f64,
    cfg: BnConfig,
}

impl BayesNetEstimator {
    /// Builds the network over the modeled columns of `table`.
    pub fn build(table: &Table, bins: &TableBins, cfg: BnConfig) -> Self {
        let (cols, codes) = Self::discretize(table, bins, cfg);
        let n = table.nrows();
        // Structure learning on a strided sample.
        let stride = (n / cfg.mi_sample_rows.max(1)).max(1);
        let sampled: Vec<Vec<u32>> = codes
            .iter()
            .map(|c| c.iter().step_by(stride).copied().collect())
            .collect();
        let domains: Vec<usize> = cols.iter().map(DiscreteColumn::n_codes).collect();
        let parent = chow_liu_tree_threads(&sampled, &domains, cfg.threads);
        Self::fit(cols, &codes, parent, n, cfg)
    }

    /// The modeled columns of `table` and every row's code, column-major.
    fn discretize(
        table: &Table,
        bins: &TableBins,
        cfg: BnConfig,
    ) -> (Vec<DiscreteColumn>, Vec<Vec<u32>>) {
        let disc = Discretizer {
            max_codes: cfg.max_codes,
        };
        let cols: Vec<DiscreteColumn> = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .filter_map(|(ci, def)| disc.build(table, ci, bins.get_shared(&def.name)))
            .collect();
        let codes = encode_rows(&cols, table, 0);
        (cols, codes)
    }

    /// Counts the network of structure `parent` over `codes` (column-major,
    /// `nrows` rows) and derives its CPTs and priors.
    fn fit(
        cols: Vec<DiscreteColumn>,
        codes: &[Vec<u32>],
        parent: Vec<Option<usize>>,
        nrows: usize,
        cfg: BnConfig,
    ) -> Self {
        let m = cols.len();
        let domains: Vec<usize> = cols.iter().map(DiscreteColumn::n_codes).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        // Topological order: BFS from roots.
        let mut topo = Vec::with_capacity(m);
        let mut queue: std::collections::VecDeque<usize> =
            (0..m).filter(|&i| parent[i].is_none()).collect();
        while let Some(v) = queue.pop_front() {
            topo.push(v);
            queue.extend(children[v].iter().copied());
        }
        let mut root_of = vec![0; m];
        for &i in &topo {
            root_of[i] = parent[i].map_or(i, |p| root_of[p]);
        }
        let roots = topo
            .iter()
            .copied()
            .filter(|&i| parent[i].is_none())
            .collect();
        let off = offsets(domains.iter().copied());
        let msg_off = offsets(parent.iter().map(|p| p.map_or(0, |p| domains[p])));

        // Count marginals and child-parent joints over all rows.
        let mut marginal: Vec<Vec<f64>> = domains.iter().map(|&k| vec![0.0; k]).collect();
        let mut joint: Vec<Option<Vec<f64>>> = parent
            .iter()
            .enumerate()
            .map(|(i, p)| p.map(|p| vec![0.0; domains[i] * domains[p]]))
            .collect();
        for r in 0..nrows {
            for i in 0..m {
                let c = codes[i][r] as usize;
                marginal[i][c] += 1.0;
                if let (Some(p), Some(j)) = (parent[i], joint[i].as_mut()) {
                    j[c * domains[p] + codes[p][r] as usize] += 1.0;
                }
            }
        }

        let mut by_name: Vec<usize> = (0..m).collect();
        by_name.sort_by(|&a, &b| cols[a].name.cmp(&cols[b].name));
        let mut bn = BayesNetEstimator {
            cols,
            by_name,
            parent,
            children,
            root_of,
            roots,
            off,
            msg_off,
            max_k: domains.iter().copied().max().unwrap_or(0),
            marginal,
            joint,
            joint_parent_total: Vec::new(),
            cpt_flat: Vec::new(),
            prior: Vec::new(),
            topo,
            nrows: nrows as f64,
            cfg,
        };
        bn.recompute_parent_totals();
        bn.recompute_cpts();
        bn
    }

    fn recompute_parent_totals(&mut self) {
        self.joint_parent_total = self
            .parent
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.map(|p| {
                    let (kc, kp) = (self.cols[i].n_codes(), self.cols[p].n_codes());
                    let j = self.joint[i].as_ref().expect("non-root has joint counts");
                    let mut totals = vec![0.0; kp];
                    for c in 0..kc {
                        for (pc, t) in totals.iter_mut().enumerate() {
                            *t += j[c * kp + pc];
                        }
                    }
                    totals
                })
            })
            .collect();
    }

    /// Refreshes the derived state — smoothed CPTs and priors — from the
    /// current counts (after build and after each `insert` batch). Priors
    /// cost `O(Σ k_child · k_parent)`, the same order as the CPTs.
    fn recompute_cpts(&mut self) {
        let m = self.cols.len();
        let alpha = self.cfg.alpha;
        // Smoothed CPT `P(c | p) = (joint[c][p] + α) / (total[p] + α·k_c)`.
        self.cpt_flat = (0..m)
            .map(|i| match (&self.joint[i], &self.joint_parent_total[i]) {
                (Some(joint), Some(totals)) => {
                    let spread = alpha * self.k(i) as f64;
                    let denom: Vec<f64> = totals.iter().map(|&t| t + spread).collect();
                    joint
                        .chunks_exact(denom.len())
                        .flat_map(|row| row.iter().zip(&denom).map(|(&j, &d)| (j + alpha) / d))
                        .collect()
                }
                _ => Vec::new(),
            })
            .collect();
        // Parents precede children in `topo`, so each parent's prior is
        // final before its children read it.
        let mut prior = vec![0.0; self.off[m]];
        for &i in &self.topo {
            let at = self.off[i];
            match self.parent[i] {
                None => {
                    for c in 0..self.k(i) {
                        prior[at + c] = self.root_prob(i, c);
                    }
                }
                Some(p) => {
                    let kp = self.k(p);
                    let cpt = &self.cpt_flat[i];
                    for c in 0..self.k(i) {
                        let v = dot_chunked(
                            &prior[self.off[p]..self.off[p + 1]],
                            &cpt[c * kp..(c + 1) * kp],
                        );
                        prior[at + c] = v;
                    }
                }
            }
        }
        self.prior = prior;
    }

    /// Number of network nodes.
    pub fn num_nodes(&self) -> usize {
        self.cols.len()
    }

    /// Parent array (diagnostic / tests).
    pub fn structure(&self) -> &[Option<usize>] {
        &self.parent
    }

    fn k(&self, i: usize) -> usize {
        self.cols[i].n_codes()
    }

    /// The node modeling column `name`.
    fn node(&self, name: &str) -> Option<usize> {
        self.by_name
            .binary_search_by(|&i| self.cols[i].name.as_str().cmp(name))
            .ok()
            .map(|at| self.by_name[at])
    }

    /// Smoothed root marginal `P(node_i = c)`.
    fn root_prob(&self, i: usize, c: usize) -> f64 {
        (self.marginal[i][c] + self.cfg.alpha) / (self.nrows + self.cfg.alpha * self.k(i) as f64)
    }

    /// Writes the evidence of `filter` into `s` (weights at `off`, `EV`
    /// flags) and returns the fallback multiplier for what the network
    /// cannot express: `fallback_selectivity` per unmodeled column, and per
    /// conjunct that is not per-column (a cross-column disjunction).
    fn evidence_into(&self, filter: &FilterExpr, s: &mut PropScratch) -> f64 {
        let sel = self.cfg.fallback_selectivity;
        if is_per_column(filter) {
            let fallback = self.unmodeled_fallback(filter);
            self.add_evidence(filter, s);
            return fallback;
        }
        // Decompose what we can from the top-level conjunction and charge
        // the constant for the rest: a conjunct contributes evidence only
        // when it is per-column and costs no fallback of its own.
        let FilterExpr::And(parts) = filter else {
            return sel;
        };
        let mut fallback = 1.0;
        for part in parts {
            if is_per_column(part) && self.unmodeled_fallback(part) == 1.0 {
                self.add_evidence(part, s);
            } else {
                fallback *= sel;
            }
        }
        fallback
    }

    /// `fallback_selectivity` per distinct column of the per-column
    /// `filter` that the network does not model.
    fn unmodeled_fallback(&self, filter: &FilterExpr) -> f64 {
        let mut fallback = 1.0;
        visit_clauses(filter, &mut |col, clause| {
            if self.node(col).is_none() && starts_group(filter, col, clause) {
                fallback *= self.cfg.fallback_selectivity;
            }
        });
        fallback
    }

    /// Multiplies the evidence of each modeled column of the per-column
    /// `filter` (the AND of its clauses on that column) into `s`.
    fn add_evidence(&self, filter: &FilterExpr, s: &mut PropScratch) {
        visit_clauses(filter, &mut |col, clause| {
            let Some(i) = self.node(col) else {
                return;
            };
            if !starts_group(filter, col, clause) {
                return;
            }
            let group = ColumnClauses::Of {
                filter,
                column: col,
            };
            let w = &mut s.ev[self.off[i]..self.off[i + 1]];
            if s.flags[i] & EV == 0 {
                self.cols[i].weights_into(group, w);
                s.flags[i] |= EV;
            } else {
                let more = &mut s.tmp[..w.len()];
                self.cols[i].weights_into(group, more);
                for (a, b) in w.iter_mut().zip(more.iter()) {
                    *a *= b;
                }
            }
        });
    }

    /// Exact belief propagation, pruned to what the flagged evidence and
    /// targets need (see the module docs).
    ///
    /// Reads the `EV` weights and `TARGET` flags of `s`, writes
    /// `belief[t][c] = P(node_t = c, evidence)` for every target and
    /// returns the evidence probability.
    fn propagate(&self, s: &mut PropScratch) -> f64 {
        let m = self.cols.len();
        // Evidence and targets per subtree (children precede parents in
        // reverse topological order).
        for i in 0..m {
            s.ev_below[i] = u32::from(s.flags[i] & EV != 0);
            s.marked_below[i] = u32::from(s.flags[i] & (EV | TARGET) != 0);
        }
        for &i in self.topo.iter().rev() {
            if let Some(p) = self.parent[i] {
                s.ev_below[p] += s.ev_below[i];
                s.marked_below[p] += s.marked_below[i];
            }
        }
        // Per tree, `top` is the deepest node whose subtree holds all of the
        // tree's marks: depth never increases along reverse topological
        // order, so it is the first such node met.
        s.top[..m].fill(NONE);
        s.tree_p[..m].fill(1.0);
        for &i in self.topo.iter().rev() {
            let r = self.root_of[i];
            if s.top[r] == NONE && s.marked_below[r] > 0 && s.marked_below[i] == s.marked_below[r] {
                s.top[r] = i;
            }
        }

        // Upward, inside each `top`'s subtree, only through nodes with
        // evidence below (an evidence-free subtree sends the exactly-unit
        // message, the CPT being normalized): λ_i(c) = w_i(c) ·
        // Π_child msg_child(c); msg_i(p) = Σ_c P(c|p) λ_i(c). Nodes above
        // `top` hold all marks in their subtree too, so they are skipped.
        for &i in self.topo.iter().rev() {
            let r = self.root_of[i];
            let is_top = s.top[r] == i;
            if s.ev_below[i] == 0 || !(is_top || s.marked_below[i] < s.marked_below[r]) {
                continue;
            }
            s.flags[i] |= UP;
            let (lo, hi) = (self.off[i], self.off[i + 1]);
            if s.flags[i] & EV != 0 {
                s.lambda[lo..hi].copy_from_slice(&s.ev[lo..hi]);
            } else {
                s.lambda[lo..hi].fill(1.0);
            }
            for &ch in &self.children[i] {
                if s.flags[ch] & UP == 0 {
                    continue;
                }
                let msg = &s.msg[self.msg_off[ch]..self.msg_off[ch + 1]];
                for (l, &mv) in s.lambda[lo..hi].iter_mut().zip(msg) {
                    *l *= mv;
                }
            }
            if is_top {
                // All of the tree's evidence sits below `top`.
                s.tree_p[r] = self.prior[lo..hi]
                    .iter()
                    .zip(&s.lambda[lo..hi])
                    .map(|(&q, &l)| q * l)
                    .sum();
            } else {
                let p = self.parent[i].expect("a node below top has a parent");
                let kp = self.k(p);
                let cpt = &self.cpt_flat[i];
                let msg = &mut s.msg[self.msg_off[i]..self.msg_off[i + 1]];
                msg.fill(0.0);
                for (c, &l) in s.lambda[lo..hi].iter().enumerate() {
                    if l <= 0.0 {
                        continue;
                    }
                    let row = &cpt[c * kp..(c + 1) * kp];
                    for (slot, &p_cp) in msg.iter_mut().zip(row) {
                        *slot += p_cp * l;
                    }
                }
            }
        }
        // Trees are independent, so the evidence probability is a product;
        // an evidence-free tree contributes exactly 1.
        let p_evidence: f64 = self.roots.iter().map(|&r| s.tree_p[r]).product();

        // Beliefs: from each target up to the first node whose subtree
        // holds all of its tree's evidence (the target itself when there is
        // no evidence elsewhere) — that node's belief is prior ⊙ λ, and the
        // nodes below it on the path step down from their parent.
        for &t in &s.key_node {
            let mut i = t;
            while i != NONE && s.flags[i] & NEED == 0 {
                s.flags[i] |= NEED;
                i = if s.ev_below[i] == s.ev_below[self.root_of[i]] {
                    NONE
                } else {
                    self.parent[i].expect("only a root holds all evidence of a tree")
                };
            }
        }
        for &i in &self.topo {
            if s.flags[i] & NEED == 0 {
                continue;
            }
            let (lo, hi) = (self.off[i], self.off[i + 1]);
            if s.ev_below[i] == s.ev_below[self.root_of[i]] {
                s.belief[lo..hi].copy_from_slice(&self.prior[lo..hi]);
            } else {
                // π of the parent with this child's message divided out
                // (a unit message when the subtree has no evidence).
                let p = self.parent[i].expect("stepping down from a parent");
                let kp = self.k(p);
                let parent_belief = &s.belief[self.off[p]..self.off[p + 1]];
                let pi_ex = &mut s.tmp[..kp];
                if s.flags[i] & UP != 0 {
                    let msg = &s.msg[self.msg_off[i]..self.msg_off[i + 1]];
                    for ((slot, &b), &mv) in pi_ex.iter_mut().zip(parent_belief).zip(msg) {
                        *slot = if mv > 0.0 { b / mv } else { 0.0 };
                    }
                } else {
                    pi_ex.copy_from_slice(parent_belief);
                }
                // Branch-free per-code dot product: a zero π entry
                // contributes an exact 0.0.
                let cpt = &self.cpt_flat[i];
                for (c, slot) in s.belief[lo..hi].iter_mut().enumerate() {
                    *slot = dot_chunked(pi_ex, &cpt[c * kp..(c + 1) * kp]);
                }
            }
            if s.flags[i] & UP != 0 {
                for (b, &l) in s.belief[lo..hi].iter_mut().zip(&s.lambda[lo..hi]) {
                    *b *= l;
                }
            }
        }
        // Scale each target's belief by the other trees' evidence
        // probability so belief sums equal the global p_evidence. Walk the
        // flags (not `key_node`) so a duplicated target is scaled once.
        for t in 0..m {
            if s.flags[t] & TARGET == 0 {
                continue;
            }
            let own = s.tree_p[self.root_of[t]];
            let others = if own > 0.0 { p_evidence / own } else { 0.0 };
            if others != 1.0 {
                for b in &mut s.belief[self.off[t]..self.off[t + 1]] {
                    *b *= others;
                }
            }
        }
        p_evidence
    }
}

/// Start offsets of consecutive slices with lengths `lens`, followed by
/// the total: `[0, l0, l0 + l1, …]`.
fn offsets(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    std::iter::once(0)
        .chain(lens.scan(0, |at, len| {
            *at += len;
            Some(*at)
        }))
        .collect()
}

/// Whether `clause` is the first clause on `column` in the per-column
/// `filter` — each column's group of clauses is handled once, there.
fn starts_group(filter: &FilterExpr, column: &str, clause: &FilterExpr) -> bool {
    ColumnClauses::Of { filter, column }
        .first()
        .is_some_and(|first| std::ptr::eq(first, clause))
}

/// Codes of rows `first_row..` of `table` for each of `cols`, column-major:
/// one column borrow and one encoding dispatch per column, sequential
/// reads (a row-major loop's per-cell re-dispatch costs ~2× on wide
/// tables). Columns are matched by name, so the schema may carry columns
/// the network skips (floats).
fn encode_rows(cols: &[DiscreteColumn], table: &Table, first_row: usize) -> Vec<Vec<u32>> {
    cols.iter()
        .map(|dc| {
            let ci = table
                .schema()
                .index_of(&dc.name)
                .expect("modeled column in schema");
            let col = table.column(ci);
            (first_row..table.nrows())
                .map(|r| dc.encode_row(col, r) as u32)
                .collect()
        })
        .collect()
}

impl BaseTableEstimator for BayesNetEstimator {
    fn name(&self) -> &'static str {
        "bayesnet"
    }

    fn estimate_filter(&self, filter: &FilterExpr) -> f64 {
        let mut s = PropScratch::default();
        s.begin(self, 0);
        let fallback = self.evidence_into(filter, &mut s);
        self.propagate(&mut s) * fallback * self.nrows
    }

    fn key_distribution(&self, key_col: &str, filter: &FilterExpr) -> Vec<f64> {
        let mut out = TableProfile::default();
        self.profile_into(filter, &[key_col], &mut out);
        out.key_dists.pop().expect("one key requested")
    }

    fn key_bins(&self, key_col: &str) -> usize {
        match self.node(key_col) {
            Some(i) => self.k(i) - 1, // exclude the NULL code
            None => 1,
        }
    }

    fn profile(&self, filter: &FilterExpr, key_cols: &[&str]) -> TableProfile {
        let mut out = TableProfile::default();
        self.profile_into(filter, key_cols, &mut out);
        out
    }

    fn profile_into(&self, filter: &FilterExpr, key_cols: &[&str], out: &mut TableProfile) {
        out.reset(key_cols.len());
        let TableProfile {
            rows,
            key_dists,
            scratch: s,
        } = out;
        s.begin(self, key_cols.len());
        let fallback = self.evidence_into(filter, s);
        for kc in key_cols {
            let node = self.node(kc);
            if let Some(i) = node {
                s.flags[i] |= TARGET;
            }
            s.key_node.push(node.unwrap_or(NONE));
        }
        let p = self.propagate(s);
        *rows = p * fallback * self.nrows;
        for (d, &i) in key_dists.iter_mut().zip(&s.key_node) {
            if i == NONE {
                d.push(*rows);
            } else {
                let nk = self.k(i) - 1; // drop NULL code
                let at = self.off[i];
                d.extend(
                    s.belief[at..at + nk]
                        .iter()
                        .map(|&b| b * fallback * self.nrows),
                );
            }
        }
    }

    fn clone_box(&self) -> Box<dyn BaseTableEstimator> {
        Box::new(self.clone())
    }

    fn insert(&mut self, table: &Table, first_new_row: usize) {
        let codes = encode_rows(&self.cols, table, first_new_row);
        let delta_rows = table.nrows() - first_new_row;
        for (i, ci) in codes.iter().enumerate() {
            let marginal = &mut self.marginal[i];
            if let (Some(p), Some(j)) = (self.parent[i], self.joint[i].as_mut()) {
                let kp = self.cols[p].n_codes();
                let cp = &codes[p];
                for r in 0..delta_rows {
                    marginal[ci[r] as usize] += 1.0;
                    j[ci[r] as usize * kp + cp[r] as usize] += 1.0;
                }
                if let Some(t) = self.joint_parent_total[i].as_mut() {
                    for &pc in cp {
                        t[pc as usize] += 1.0;
                    }
                }
            } else {
                for &c in ci {
                    marginal[c as usize] += 1.0;
                }
            }
        }
        self.nrows += delta_rows as f64;
        // Counts changed → refresh the derived CPTs and priors once per
        // batch.
        self.recompute_cpts();
    }

    fn model_bytes(&self) -> usize {
        let counts: usize = self
            .marginal
            .iter()
            .map(|v| v.len() * 8)
            .chain(self.joint.iter().flatten().map(|v| v.len() * 8))
            .sum();
        let cols: usize = self.cols.iter().map(DiscreteColumn::heap_bytes).sum();
        counts + cols
    }
}

/// The two-pass propagation this module replaced, kept as the reference
/// the pruned path is checked against: evidence as one `Option<Vec<f64>>`
/// per node from [`crate::split_per_column`], an upward pass over every
/// evidence-carrying subtree up to the roots, and a downward pass from the
/// roots along every root→target path. Root marginals come straight from
/// the counts, so priors that were not refreshed with the CPTs show up as
/// a mismatch.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::split_per_column;

    /// Buffers of the reference propagation.
    #[derive(Debug, Default)]
    struct RefScratch {
        lambda: Vec<Vec<f64>>,
        msg: Vec<Vec<f64>>,
        belief: Vec<Vec<f64>>,
        pi_ex: Vec<f64>,
        has_ev: Vec<bool>,
        need_belief: Vec<bool>,
        comp_of: Vec<usize>,
        comp_p: Vec<f64>,
    }

    /// Per-node evidence weights plus the fallback multiplier.
    pub(super) fn evidence(
        bn: &BayesNetEstimator,
        filter: &FilterExpr,
    ) -> (Vec<Option<Vec<f64>>>, f64) {
        let mut ev: Vec<Option<Vec<f64>>> = vec![None; bn.cols.len()];
        let mut fallback = 1.0;
        match split_per_column(filter) {
            Some(clauses) => {
                for (col, clause) in clauses {
                    match bn.node(&col) {
                        Some(i) => {
                            let w = bn.cols[i].clause_weights(&clause);
                            ev[i] = Some(match ev[i].take() {
                                None => w,
                                Some(old) => old.iter().zip(&w).map(|(a, b)| a * b).collect(),
                            });
                        }
                        None => fallback *= bn.cfg.fallback_selectivity,
                    }
                }
            }
            None => {
                if let FilterExpr::And(parts) = filter {
                    for part in parts {
                        let (sub_ev, sub_fb) = evidence(bn, part);
                        if sub_fb == 1.0 && split_per_column(part).is_some() {
                            for (slot, w) in ev.iter_mut().zip(sub_ev) {
                                if let Some(w) = w {
                                    *slot = Some(match slot.take() {
                                        None => w,
                                        Some(old) => {
                                            old.iter().zip(&w).map(|(a, b)| a * b).collect()
                                        }
                                    });
                                }
                            }
                        } else {
                            fallback *= bn.cfg.fallback_selectivity;
                        }
                    }
                } else {
                    fallback *= bn.cfg.fallback_selectivity;
                }
            }
        }
        (ev, fallback)
    }

    /// Writes `belief[t]` for every target and returns `P(evidence)`.
    fn propagate_targets(
        bn: &BayesNetEstimator,
        ev: &[Option<Vec<f64>>],
        targets: &[usize],
        s: &mut RefScratch,
    ) -> f64 {
        let m = bn.cols.len();
        s.lambda.resize_with(m, Vec::new);
        s.msg.resize_with(m, Vec::new);
        s.belief.resize_with(m, Vec::new);
        s.has_ev = vec![false; m];
        s.need_belief = vec![false; m];
        s.comp_of = vec![0; m];
        s.comp_p.clear();
        for &i in bn.topo.iter().rev() {
            let mut h = ev[i].is_some();
            for &ch in &bn.children[i] {
                h |= s.has_ev[ch];
            }
            s.has_ev[i] = h;
        }
        for &t in targets {
            let mut i = t;
            loop {
                if s.need_belief[i] {
                    break;
                }
                s.need_belief[i] = true;
                match bn.parent[i] {
                    Some(p) => i = p,
                    None => break,
                }
            }
        }
        for &i in bn.topo.iter().rev() {
            if !s.has_ev[i] {
                continue;
            }
            let k = bn.k(i);
            s.lambda[i].clear();
            match ev[i].as_ref() {
                Some(w) => s.lambda[i].extend_from_slice(w),
                None => s.lambda[i].resize(k, 1.0),
            }
            for &ch in &bn.children[i] {
                if !s.has_ev[ch] {
                    continue;
                }
                let msg = std::mem::take(&mut s.msg[ch]);
                for (l, &mv) in s.lambda[i].iter_mut().zip(&msg) {
                    *l *= mv;
                }
                s.msg[ch] = msg;
            }
            if let Some(p) = bn.parent[i] {
                let kp = bn.k(p);
                let cpt = &bn.cpt_flat[i];
                let msg = &mut s.msg[i];
                msg.clear();
                msg.resize(kp, 0.0);
                for (c, &l) in s.lambda[i].iter().enumerate() {
                    if l <= 0.0 {
                        continue;
                    }
                    for (slot, &p_cp) in msg.iter_mut().zip(&cpt[c * kp..(c + 1) * kp]) {
                        *slot += p_cp * l;
                    }
                }
            }
        }
        for &i in &bn.topo {
            match bn.parent[i] {
                None => {
                    let p = if s.has_ev[i] {
                        (0..bn.k(i))
                            .map(|c| bn.root_prob(i, c) * s.lambda[i][c])
                            .sum()
                    } else {
                        1.0
                    };
                    s.comp_of[i] = s.comp_p.len();
                    s.comp_p.push(p);
                }
                Some(p) => s.comp_of[i] = s.comp_of[p],
            }
        }
        let p_evidence: f64 = s.comp_p.iter().product();
        for &i in &bn.topo {
            if !s.need_belief[i] {
                continue;
            }
            let k = bn.k(i);
            match bn.parent[i] {
                None => {
                    s.belief[i] = (0..k).map(|c| bn.root_prob(i, c)).collect();
                }
                Some(p) => {
                    let kp = bn.k(p);
                    s.pi_ex.clear();
                    if s.has_ev[i] {
                        for (pc, &b) in s.belief[p].iter().enumerate() {
                            let mv = s.msg[i][pc];
                            s.pi_ex.push(if mv > 0.0 { b / mv } else { 0.0 });
                        }
                    } else {
                        s.pi_ex.extend_from_slice(&s.belief[p]);
                    }
                    let cpt = &bn.cpt_flat[i];
                    s.belief[i] = (0..k)
                        .map(|c| dot_chunked(&s.pi_ex, &cpt[c * kp..(c + 1) * kp]))
                        .collect();
                }
            }
            if s.has_ev[i] {
                for (b, &l) in s.belief[i].iter_mut().zip(&s.lambda[i]) {
                    *b *= l;
                }
            }
        }
        if s.comp_p.len() > 1 {
            for i in 0..m {
                if !s.need_belief[i] {
                    continue;
                }
                let own = s.comp_p[s.comp_of[i]];
                let others = if own > 0.0 { p_evidence / own } else { 0.0 };
                if others != 1.0 {
                    for b in &mut s.belief[i] {
                        *b *= others;
                    }
                }
            }
        }
        p_evidence
    }

    /// The reference profile of `filter` for `key_cols`.
    pub(super) fn profile(
        bn: &BayesNetEstimator,
        filter: &FilterExpr,
        key_cols: &[&str],
    ) -> TableProfile {
        let (ev, fallback) = evidence(bn, filter);
        let targets: Vec<usize> = key_cols.iter().filter_map(|kc| bn.node(kc)).collect();
        let mut s = RefScratch::default();
        let p = propagate_targets(bn, &ev, &targets, &mut s);
        let rows = p * fallback * bn.nrows;
        let key_dists = key_cols
            .iter()
            .map(|kc| match bn.node(kc) {
                Some(i) => s.belief[i][..bn.k(i) - 1]
                    .iter()
                    .map(|&b| b * fallback * bn.nrows)
                    .collect(),
                None => vec![rows],
            })
            .collect();
        TableProfile {
            rows,
            key_dists,
            ..TableProfile::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::KeyBinMap;
    use fj_query::{CmpOp, Predicate};
    use fj_storage::{ColumnDef, DataType, TableSchema, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Table with a strong key↔attribute correlation: attr = key % 4.
    fn correlated_table(n: usize) -> Table {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("attr", DataType::Int),
            ColumnDef::new("noise", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                let key = rng.gen_range(0..40i64);
                vec![
                    Value::Int(key),
                    Value::Int(key % 4),
                    Value::Int(rng.gen_range(0..1000)),
                ]
            })
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    fn bins_mod(k: usize) -> TableBins {
        let mut tb = TableBins::new();
        let map: HashMap<i64, u32> = (0..40).map(|v| (v, (v % k as i64) as u32)).collect();
        tb.insert("id", KeyBinMap::new(k, map));
        tb
    }

    fn exact_count(t: &Table, f: &FilterExpr) -> f64 {
        fj_query::filtered_count(t, f) as f64
    }

    #[test]
    fn unfiltered_profile_matches_row_count() {
        let t = correlated_table(4000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let est = bn.estimate_filter(&FilterExpr::True);
        assert!((est - 4000.0).abs() < 1.0, "est {est}");
        let d = bn.key_distribution("id", &FilterExpr::True);
        assert_eq!(d.len(), 8);
        let sum: f64 = d.iter().sum();
        assert!((sum - 4000.0).abs() / 4000.0 < 0.02, "sum {sum}");
    }

    #[test]
    fn equality_filter_estimates_close() {
        let t = correlated_table(4000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 2));
        let est = bn.estimate_filter(&f);
        let exact = exact_count(&t, &f);
        assert!(
            (est - exact).abs() / exact < 0.1,
            "est {est} vs exact {exact}"
        );
    }

    #[test]
    fn captures_key_attribute_correlation() {
        // attr = key % 4, so filtering attr = 0 keeps only keys ≡ 0 (mod 4).
        // An independence-assuming model would spread mass over all bins.
        let t = correlated_table(8000);
        let k = 8;
        // Bin i holds keys with key % 8 == i, so attr=0 ⇒ bins {0, 4} only.
        let bn = BayesNetEstimator::build(&t, &bins_mod(k), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 0));
        let d = bn.key_distribution("id", &f);
        let total: f64 = d.iter().sum();
        let in_04 = d[0] + d[4];
        assert!(in_04 / total > 0.9, "correlation not captured: {d:?}");
    }

    #[test]
    fn conditional_distribution_matches_truth() {
        let t = correlated_table(8000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(4), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 1));
        let d = bn.key_distribution("id", &f);
        // Ground truth per bin.
        let id = t.column_by_name("id").unwrap().ints();
        let attr = t.column_by_name("attr").unwrap().ints();
        let mut truth = [0.0; 4];
        for i in 0..t.nrows() {
            if attr[i] == 1 {
                truth[(id[i] % 4) as usize] += 1.0;
            }
        }
        for b in 0..4 {
            assert!(
                (d[b] - truth[b]).abs() <= truth[b].max(20.0) * 0.25,
                "bin {b}: est {} vs truth {}",
                d[b],
                truth[b]
            );
        }
    }

    #[test]
    fn range_and_in_filters() {
        let t = correlated_table(4000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        for f in [
            FilterExpr::pred(Predicate::cmp("attr", CmpOp::Ge, 2)),
            FilterExpr::pred(Predicate::in_list(
                "attr",
                vec![Value::Int(0), Value::Int(3)],
            )),
            FilterExpr::and(vec![
                FilterExpr::pred(Predicate::cmp("attr", CmpOp::Ge, 1)),
                FilterExpr::pred(Predicate::cmp("noise", CmpOp::Lt, 500)),
            ]),
        ] {
            let est = bn.estimate_filter(&f);
            let exact = exact_count(&t, &f);
            let q = (est.max(1.0) / exact.max(1.0)).max(exact.max(1.0) / est.max(1.0));
            assert!(q < 1.5, "{f}: est {est} vs exact {exact} (q={q:.2})");
        }
    }

    #[test]
    fn same_column_disjunction_is_evidence() {
        let t = correlated_table(4000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::or(vec![
            FilterExpr::pred(Predicate::eq("attr", 0)),
            FilterExpr::pred(Predicate::eq("attr", 1)),
        ]);
        let est = bn.estimate_filter(&f);
        let exact = exact_count(&t, &f);
        assert!(
            (est - exact).abs() / exact < 0.1,
            "est {est} vs exact {exact}"
        );
    }

    #[test]
    fn cross_column_disjunction_falls_back() {
        let t = correlated_table(1000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::or(vec![
            FilterExpr::pred(Predicate::eq("attr", 0)),
            FilterExpr::pred(Predicate::eq("noise", 7)),
        ]);
        // Fallback returns the constant-selectivity guess; it must be a
        // sane positive number, not a crash.
        let est = bn.estimate_filter(&f);
        assert!(est > 0.0 && est <= 1000.0);
    }

    #[test]
    fn insert_updates_counts() {
        let mut t = correlated_table(2000);
        let mut bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let before = bn.estimate_filter(&FilterExpr::True);
        let f7_filter = FilterExpr::pred(Predicate::eq("noise", 7));
        let f7_before = bn.estimate_filter(&f7_filter);
        let new_rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::Int(i % 40), Value::Int((i % 40) % 4), Value::Int(7)])
            .collect();
        t.append_rows(&new_rows).unwrap();
        bn.insert(&t, 2000);
        let after = bn.estimate_filter(&FilterExpr::True);
        assert!((after - before - 1000.0).abs() < 1.0, "after {after}");
        // The noise=7 spike grows the containing bucket's mass. Per-bucket
        // NDV metadata is frozen at build time (the paper's §4.3 "bins are
        // optimized on the previous data" caveat), so the estimate rises by
        // roughly the bucket-mass factor, not to the exact new count.
        let f7_after = bn.estimate_filter(&f7_filter);
        assert!(
            f7_after > 10.0 * f7_before.max(1.0),
            "noise=7 estimate {f7_after} (before {f7_before})"
        );
    }

    #[test]
    fn null_aware_distribution() {
        let schema = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("a", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                let id = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 10)
                };
                vec![id, Value::Int(i % 2)]
            })
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let mut tb = TableBins::new();
        let map: HashMap<i64, u32> = (0..10).map(|v| (v, (v % 2) as u32)).collect();
        tb.insert("id", KeyBinMap::new(2, map));
        let bn = BayesNetEstimator::build(&t, &tb, BnConfig::default());
        let d = bn.key_distribution("id", &FilterExpr::True);
        // 20 NULL ids excluded: distribution sums to ≈ 80.
        let sum: f64 = d.iter().sum();
        assert!((sum - 80.0).abs() < 3.0, "sum {sum}");
    }

    #[test]
    fn duplicate_key_columns_profile_identically() {
        // Requesting the same key twice must return two identical
        // distributions, each equal to the single-request one (guards the
        // belief-scaling pass against double-applying per-target factors).
        let t = correlated_table(3000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 1));
        let p1 = bn.profile(&f, &["id"]);
        let p2 = bn.profile(&f, &["id", "id"]);
        assert_eq!(p2.key_dists[0], p1.key_dists[0]);
        assert_eq!(p2.key_dists[1], p1.key_dists[0]);
    }

    #[test]
    fn model_bytes_nonzero_and_bounded() {
        let t = correlated_table(2000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let b = bn.model_bytes();
        assert!(b > 100, "too small: {b}");
        assert!(b < 4_000_000, "unexpectedly large: {b}");
    }

    #[test]
    fn profile_consistent_with_parts() {
        let t = correlated_table(3000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 3));
        let p = bn.profile(&f, &["id"]);
        assert!((p.rows - bn.estimate_filter(&f)).abs() < 1e-9);
        let d = bn.key_distribution("id", &f);
        for (a, b) in p.key_dists[0].iter().zip(&d) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// `a` and `b` agree within `1e-12` relative.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
    }

    /// Asserts that the pruned profile matches the reference propagation.
    fn assert_matches_reference(bn: &BayesNetEstimator, f: &FilterExpr, keys: &[&str]) {
        let mut got = TableProfile::default();
        bn.profile_into(f, keys, &mut got);
        let want = reference::profile(bn, f, keys);
        assert!(
            close(got.rows, want.rows),
            "{f}: rows {} vs reference {}",
            got.rows,
            want.rows
        );
        assert_eq!(got.key_dists.len(), want.key_dists.len());
        for ((g, w), key) in got.key_dists.iter().zip(&want.key_dists).zip(keys) {
            assert_eq!(g.len(), w.len(), "{f}: key {key} length");
            for (b, (&x, &y)) in g.iter().zip(w).enumerate() {
                assert!(close(x, y), "{f}: key {key} bin {b}: {x} vs reference {y}");
            }
        }
    }

    /// The STATS tables (scale 0.05) with every join key binned by value
    /// modulo `k`.
    fn stats_tables(k: u32) -> Vec<(Table, TableBins)> {
        let cat = fj_datagen::stats_catalog(&fj_datagen::StatsConfig {
            scale: 0.05,
            ..Default::default()
        });
        cat.tables()
            .map(|t| {
                let mut bins = TableBins::new();
                for (ci, def) in t.schema().columns().iter().enumerate() {
                    if !def.join_key {
                        continue;
                    }
                    let col = t.column(ci);
                    let map: HashMap<i64, u32> = (0..t.nrows())
                        .filter_map(|r| col.key_at(r))
                        .map(|v| (v, (v.rem_euclid(k as i64)) as u32))
                        .collect();
                    bins.insert(&def.name, KeyBinMap::new(k as usize, map));
                }
                (t.clone(), bins)
            })
            .collect()
    }

    /// A random single-column clause on column `ci` of `t`, built from
    /// values the column holds: comparisons, ranges, IN lists, NULL tests,
    /// same-column OR and NOT.
    fn random_clause(rng: &mut StdRng, t: &Table, ci: usize) -> FilterExpr {
        let name = t.schema().column(ci).name.as_str();
        let col = t.column(ci);
        let mut value = |rng: &mut StdRng| col.get(rng.gen_range(0..t.nrows()));
        let atom = |rng: &mut StdRng, value: &mut dyn FnMut(&mut StdRng) -> Value| {
            let v = value(rng);
            FilterExpr::pred(match rng.gen_range(0..6) {
                0 => Predicate::IsNull {
                    column: name.into(),
                    negated: rng.gen_bool(0.5),
                },
                1 => Predicate::in_list(name, vec![v, value(rng), value(rng)]),
                2 => Predicate::between(name, v, value(rng)),
                3 => Predicate::eq(name, v),
                _ => {
                    let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Neq];
                    Predicate::cmp(name, ops[rng.gen_range(0..ops.len())], v)
                }
            })
        };
        match rng.gen_range(0..5) {
            0 => FilterExpr::or(vec![atom(rng, &mut value), atom(rng, &mut value)]),
            1 => FilterExpr::Not(Box::new(atom(rng, &mut value))),
            _ => atom(rng, &mut value),
        }
    }

    /// A random filter with evidence on `focus` (plus 0–2 other modeled
    /// columns), sometimes a second clause on the same column, an
    /// unmodeled column, or a cross-column OR the network must charge the
    /// fallback constant for.
    fn random_filter(
        rng: &mut StdRng,
        bn: &BayesNetEstimator,
        t: &Table,
        focus: usize,
    ) -> FilterExpr {
        let ci = |node: usize| t.schema().index_of(&bn.cols[node].name).unwrap();
        let mut parts = vec![random_clause(rng, t, ci(focus))];
        for _ in 0..rng.gen_range(0..3) {
            let node = rng.gen_range(0..bn.num_nodes());
            parts.push(random_clause(rng, t, ci(node)));
        }
        if rng.gen_bool(0.3) {
            parts.push(random_clause(rng, t, ci(focus)));
        }
        if rng.gen_bool(0.15) {
            parts.push(FilterExpr::pred(Predicate::eq("ghost", 1)));
        }
        if rng.gen_bool(0.2) {
            let other = rng.gen_range(0..bn.num_nodes());
            parts.push(FilterExpr::or(vec![
                random_clause(rng, t, ci(focus)),
                random_clause(rng, t, ci(other)),
            ]));
        }
        FilterExpr::and(parts)
    }

    /// Requested key columns: a random selection of the table's join keys,
    /// sometimes duplicated, sometimes with a column the network does not
    /// model.
    fn random_keys<'t>(rng: &mut StdRng, t: &'t Table) -> Vec<&'t str> {
        let keys: Vec<&str> = t
            .schema()
            .columns()
            .iter()
            .filter(|d| d.join_key)
            .map(|d| d.name.as_str())
            .collect();
        let mut out: Vec<&str> = keys.iter().copied().filter(|_| rng.gen_bool(0.7)).collect();
        if !out.is_empty() && rng.gen_bool(0.3) {
            out.push(out[0]);
        }
        if rng.gen_bool(0.2) {
            out.push("ghost");
        }
        out
    }

    /// Evidence focus nodes worth covering: the root, a leaf, every key
    /// node, and a few random nodes.
    fn focus_nodes(rng: &mut StdRng, bn: &BayesNetEstimator, t: &Table) -> Vec<usize> {
        let mut nodes = vec![bn.roots[0]];
        nodes.extend((0..bn.num_nodes()).find(|&i| bn.children[i].is_empty()));
        nodes.extend((0..bn.num_nodes()).filter(|&i| {
            let ci = t.schema().index_of(&bn.cols[i].name).unwrap();
            t.schema().column(ci).join_key
        }));
        nodes.extend((0..3).map(|_| rng.gen_range(0..bn.num_nodes())));
        nodes
    }

    /// Rebuilds `bn`'s network over `t` with the edges into `cut` removed,
    /// making a forest of several trees.
    fn forest(
        t: &Table,
        bins: &TableBins,
        bn: &BayesNetEstimator,
        cut: &[usize],
    ) -> BayesNetEstimator {
        let mut parent = bn.parent.clone();
        for &i in cut {
            parent[i] = None;
        }
        let (cols, codes) = BayesNetEstimator::discretize(t, bins, bn.cfg);
        BayesNetEstimator::fit(cols, &codes, parent, t.nrows(), bn.cfg)
    }

    /// The pruned propagation agrees with the two-pass reference on random
    /// filters over STATS-shaped networks — single trees and forests.
    #[test]
    fn pruned_propagation_matches_reference_on_stats_networks() {
        let mut rng = StdRng::seed_from_u64(2023);
        for (t, bins) in stats_tables(16) {
            let tree = BayesNetEstimator::build(&t, &bins, BnConfig::default());
            let m = tree.num_nodes();
            let cut: Vec<usize> = (0..m)
                .filter(|&i| tree.parent[i].is_some() && i % 3 == 1)
                .collect();
            let split = forest(&t, &bins, &tree, &cut);
            assert!(
                m < 3 || split.roots.len() > 1,
                "{}: forest has one tree",
                t.name()
            );
            for bn in [&tree, &split] {
                for focus in focus_nodes(&mut rng, bn, &t) {
                    for _ in 0..6 {
                        let f = random_filter(&mut rng, bn, &t, focus);
                        let keys = random_keys(&mut rng, &t);
                        assert_matches_reference(bn, &f, &keys);
                    }
                }
                let keys = random_keys(&mut rng, &t);
                assert_matches_reference(bn, &FilterExpr::True, &keys);
            }
        }
    }

    /// The allocation-free evidence builder reproduces the reference
    /// evidence (split, merged and fallback-charged) bit for bit.
    #[test]
    fn evidence_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for (t, bins) in stats_tables(8) {
            let bn = BayesNetEstimator::build(&t, &bins, BnConfig::default());
            let mut s = PropScratch::default();
            for focus in focus_nodes(&mut rng, &bn, &t) {
                for _ in 0..8 {
                    let f = random_filter(&mut rng, &bn, &t, focus);
                    s.begin(&bn, 0);
                    let fallback = bn.evidence_into(&f, &mut s);
                    let (ev, want_fallback) = reference::evidence(&bn, &f);
                    assert_eq!(fallback.to_bits(), want_fallback.to_bits(), "{f}");
                    for (i, w) in ev.iter().enumerate() {
                        assert_eq!(s.flags[i] & EV != 0, w.is_some(), "{f}: node {i}");
                        if let Some(w) = w {
                            let got = &s.ev[bn.off[i]..bn.off[i + 1]];
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(got), bits(w), "{f}: node {i}");
                        }
                    }
                }
            }
        }
    }

    /// A `TRUE` filter's profile is the prior scaled by the row count,
    /// exactly: no propagation runs.
    #[test]
    fn true_filter_profile_is_prior_times_rows() {
        for (t, bins) in stats_tables(16) {
            let bn = BayesNetEstimator::build(&t, &bins, BnConfig::default());
            let keys: Vec<&str> = bins.iter().map(|(name, _)| name.as_str()).collect();
            let p = bn.profile(&FilterExpr::True, &keys);
            assert_eq!(p.rows.to_bits(), bn.nrows.to_bits());
            for (d, key) in p.key_dists.iter().zip(&keys) {
                let i = bn.node(key).unwrap();
                let want: Vec<u64> = bn.prior[bn.off[i]..bn.off[i + 1] - 1]
                    .iter()
                    .map(|&q| (q * bn.nrows).to_bits())
                    .collect();
                let got: Vec<u64> = d.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{}.{key}", t.name());
            }
        }
    }

    /// Priors are derived state: after `insert` — in place, and on a clone
    /// as `FactorJoinModel::updated_with` does through `clone_box` — the
    /// pruned profiles still match the reference, whose root marginals come
    /// straight from the updated counts.
    #[test]
    fn profiles_match_reference_after_insert() {
        let mut rng = StdRng::seed_from_u64(11);
        for (mut t, bins) in stats_tables(16) {
            let n = t.nrows();
            let base = BayesNetEstimator::build(&t, &bins, BnConfig::default());
            // Skewed insert: repeat a few rows many times, so every CPT and
            // prior moves visibly.
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|r| {
                    let src = r % 7;
                    (0..t.schema().columns().len())
                        .map(|c| t.column(c).get(src))
                        .collect()
                })
                .collect();
            t.append_rows(&rows).unwrap();
            let mut in_place = base.clone();
            in_place.insert(&t, n);
            let mut copy = base.clone();
            copy.insert(&t, n);
            for bn in [&in_place, &copy] {
                for focus in focus_nodes(&mut rng, bn, &t) {
                    let f = random_filter(&mut rng, bn, &t, focus);
                    let keys = random_keys(&mut rng, &t);
                    assert_matches_reference(bn, &f, &keys);
                    assert_matches_reference(bn, &FilterExpr::True, &keys);
                }
            }
            assert_ne!(copy.prior, base.prior, "{}: priors did not move", t.name());
        }
    }

    /// The estimator holds no mutable state: two threads profiling one
    /// shared network concurrently get bit-identical results to a serial
    /// pass.
    #[test]
    fn concurrent_profiles_match_serial() {
        let mut rng = StdRng::seed_from_u64(3);
        let (t, bins) = stats_tables(16).swap_remove(1);
        let bn = BayesNetEstimator::build(&t, &bins, BnConfig::default());
        let cases: Vec<(FilterExpr, Vec<&str>)> = focus_nodes(&mut rng, &bn, &t)
            .into_iter()
            .map(|focus| {
                (
                    random_filter(&mut rng, &bn, &t, focus),
                    random_keys(&mut rng, &t),
                )
            })
            .collect();
        let bits = |p: &TableProfile| -> Vec<u64> {
            std::iter::once(p.rows.to_bits())
                .chain(p.key_dists.iter().flatten().map(|x| x.to_bits()))
                .collect()
        };
        let serial: Vec<Vec<u64>> = cases.iter().map(|(f, k)| bits(&bn.profile(f, k))).collect();
        // Both threads start profiling together, so their passes overlap.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for offset in 0..2 {
                let (bn, cases, serial, start) = (&bn, &cases, &serial, &start);
                scope.spawn(move || {
                    let mut out = TableProfile::default();
                    start.wait();
                    for round in 0..200 {
                        let at = (round * 7 + offset) % cases.len();
                        let (f, keys) = &cases[at];
                        bn.profile_into(f, keys, &mut out);
                        assert_eq!(bits(&out), serial[at], "{f}");
                    }
                });
            }
        });
    }
}
