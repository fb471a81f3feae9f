//! The traced in-process layer pass.
//!
//! The program has no tracing of its own, so the benchmark measures each
//! layer from outside, by timing calls into that layer's public functions:
//!
//! * `core.estimate` — one `FactorJoinModel::estimate_subplans_with` call,
//!   the model's real path, untouched;
//! * `core.decomposed` — the same estimate rebuilt from the layers' public
//!   calls, each in its own span: `QueryGraph::analyze` (`query.graph`),
//!   `connected_subplans` (`query.enumerate`),
//!   `BaseTableEstimator::profile_into` per alias (`stats.profile`), the
//!   alias's base factor from that profile and the trained MFV counts
//!   (`core.base_factor`) and `Factor::join_with` per multi-table sub-plan
//!   (`core.join`). Its
//!   results must equal the real path bit for bit, which proves the spans
//!   time the same work;
//! * `service.path` — what a service worker adds around the model:
//!   `ModelRegistry::get` (`service.registry_get`), `subplan_fingerprints`
//!   (`query.fingerprint`), `SubplanCache::get` probes collecting the hits
//!   (`service.cache_probe`) and, after a miss, inserts
//!   (`service.cache_insert`), on a cache that sees the same query
//!   sequence as an in-process `EstimatorService` that serves each query
//!   just before, so both sides of the service ledger run back to back on
//!   the same machine state.

use crate::ledger::Tally;
use crate::oracle::Record;
use crate::trace::Tracer;
use crate::workload::Stream;
use factorjoin::{keep_for_mask, Factor, FactorJoinModel, JoinScratch, KeepVars};
use fj_query::{connected_subplans, subplan_fingerprints, Query, QueryGraph, SubplanMask};
use fj_service::cache::FINGERPRINT_SEED;
use fj_service::{EstimatorService, ServiceConfig, SubplanCache};
use fj_stats::TableProfile;
use fj_storage::{Catalog, KeyRef};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

/// Counts and summed timings of the layer pass (times in ns).
#[derive(Debug, Default)]
pub struct LayerPass {
    pub queries: u64,
    pub subplans: u64,
    pub multi_subplans: u64,
    pub aliases: u64,
    pub probes: u64,
    /// Queries the replica cache could not serve whole.
    pub misses: u64,
    /// Decomposed results that differ from the real path.
    pub decomposition_mismatches: u64,
    /// Real-path estimate time, summed.
    pub estimate_ns: u64,
    /// Benchmark-side service path, summed: registry lookup + fingerprint +
    /// probes + (on a miss) estimate + inserts.
    pub service_path_ns: u64,
    /// The service worker's own `estimate_time` for the same queries.
    pub worker_ns: u64,
    /// What the in-process service served, for the oracle.
    pub tally: Tally,
    pub records: Vec<Record>,
}

/// Builds alias `alias`'s base factor the way the model does: one profile
/// call for all its join keys, member columns of one variable combined by
/// elementwise min, MFV counts from the trained key statistics.
#[allow(clippy::too_many_arguments)]
fn base_factor(
    model: &FactorJoinModel,
    catalog: &Catalog,
    query: &Query,
    graph: &QueryGraph,
    alias: usize,
    profile: &mut TableProfile,
    tr: &mut Tracer,
    trace: u64,
) -> Factor {
    let table = &query.tables()[alias].table;
    let schema = catalog
        .table(table)
        .expect("query table in catalog")
        .schema();
    let est = model.estimator(table).expect("model covers every table");
    let keys = graph.alias_keys(alias);
    let names: Vec<&str> = keys
        .iter()
        .map(|&(c, _)| schema.column(c).name.as_str())
        .collect();
    tr.span("stats.profile", trace, |_| {
        est.profile_into(query.filter(alias), &names, profile)
    });
    tr.span("core.base_factor", trace, |_| {
        let mut order: Vec<(usize, usize)> = keys
            .iter()
            .enumerate()
            .map(|(idx, &(_, var))| (var, idx))
            .collect();
        order.sort_unstable();
        let mut entries: Vec<(usize, Vec<f64>, Vec<f64>)> = Vec::with_capacity(order.len());
        for (var, idx) in order {
            let dist = &profile.key_dists[idx];
            let mfv: Vec<f64> = match model.key_stats(&KeyRef::new(table, names[idx])) {
                Some(s) => s.bin_mfv.clone(),
                None => vec![1.0; dist.len()],
            };
            match entries.last_mut() {
                Some((v, d, m)) if *v == var => {
                    let k = d.len().min(dist.len());
                    d.truncate(k);
                    m.truncate(k);
                    for i in 0..k {
                        d[i] = d[i].min(dist[i]);
                        m[i] = m[i].min(mfv[i]);
                    }
                }
                _ => entries.push((var, dist.clone(), mfv)),
            }
        }
        Factor::base(profile.rows.max(0.0), entries)
    })
}

/// The model's progressive sub-plan estimation rebuilt from public calls.
fn decomposed(
    model: &FactorJoinModel,
    catalog: &Catalog,
    query: &Query,
    tr: &mut Tracer,
    trace: u64,
    profile: &mut TableProfile,
    join: &mut JoinScratch,
) -> (Vec<(SubplanMask, f64)>, u64) {
    let graph = tr.span("query.graph", trace, |_| QueryGraph::analyze(query));
    let masks = tr.span("query.enumerate", trace, |_| connected_subplans(query, 1));
    let mut bases: Vec<Option<Factor>> = vec![None; query.num_tables()];
    let mut done: HashMap<SubplanMask, Factor> = HashMap::with_capacity(masks.len());
    let mut out = Vec::with_capacity(masks.len());
    let mut multi = 0;
    for mask in masks {
        let f = if mask.count_ones() == 1 {
            let alias = mask.trailing_zeros() as usize;
            let f = base_factor(model, catalog, query, &graph, alias, profile, tr, trace);
            bases[alias] = Some(f.clone());
            f
        } else {
            multi += 1;
            // Split off the lowest alias whose removal leaves a computed
            // sub-plan (the model's rule, so the join order matches).
            let mut rest = mask;
            let (prev, alias) = loop {
                let bit = rest & rest.wrapping_neg();
                if done.contains_key(&(mask & !bit)) {
                    break (mask & !bit, bit.trailing_zeros() as usize);
                }
                rest &= rest - 1;
                assert!(rest != 0, "connected sub-plan without a predecessor");
            };
            let keep: KeepVars = keep_for_mask(&graph, mask);
            let (left, right) = (&done[&prev], bases[alias].as_ref().expect("bases first"));
            tr.span("core.join", trace, |_| left.join_with(right, &keep, join))
        };
        out.push((mask, f.rows));
        done.insert(mask, f);
    }
    (out, multi)
}

/// What the replica's service path did for one query.
struct PathResult {
    ns: u64,
    probes: u64,
    hit: bool,
    spans: Vec<crate::trace::Span>,
}

/// The replica of a worker's cache path — registry lookup, fingerprints,
/// probes collecting the hits, inserts after a miss — run on its own
/// thread that wakes per query, as a worker does, so it pays the same
/// cross-core handoff.
fn service_path(
    tr: &mut Tracer,
    pos: u64,
    service: &EstimatorService,
    dataset: &str,
    cache: &SubplanCache,
    q: &Query,
    computed: &[(SubplanMask, f64)],
) -> (u64, bool) {
    const EPOCH: u64 = 1;
    tr.span("service.path", pos, |tr| {
        let handle = tr.span("service.registry_get", pos, |_| {
            service.registry().get(dataset)
        });
        assert!(handle.is_some(), "the service serves the dataset");
        let fps = tr.span("query.fingerprint", pos, |_| {
            subplan_fingerprints(q, 1, FINGERPRINT_SEED)
        });
        let mut probes = 0u64;
        let hit = tr.span("service.cache_probe", pos, |_| {
            let mut cached = Vec::with_capacity(fps.len());
            for &(m, fp) in &fps {
                probes += 1;
                match cache.get(EPOCH, m, fp) {
                    Some(bits) => cached.push((m, f64::from_bits(bits))),
                    None => return false,
                }
            }
            std::hint::black_box(cached);
            true
        });
        if !hit {
            tr.span("service.cache_insert", pos, |_| {
                for (&(m, fp), &(_, e)) in fps.iter().zip(computed) {
                    cache.insert(EPOCH, m, fp, e.to_bits());
                }
            });
        }
        (probes, hit)
    })
}

/// Runs the layer pass over stream positions `positions`, after replaying
/// `warmup` untraced through both the service and the replica cache.
/// `service` must be fresh and serve `model`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    model: &FactorJoinModel,
    catalog: &Catalog,
    stream: &Stream,
    service: &EstimatorService,
    dataset: &str,
    warmup: &[u32],
    positions: std::ops::Range<u64>,
    tr: &mut Tracer,
) -> LayerPass {
    // Same capacity as the service's default cache.
    let cache = SubplanCache::new(ServiceConfig::new(dataset, 1).subplan_cache_entries);
    let mut scratch = factorjoin::EstimationScratch::default();
    let mut profile = TableProfile::default();
    let mut join = JoinScratch::default();
    let mut pass = LayerPass::default();
    let origin = tr.origin();

    let worker = |qi: u32, pass: &mut LayerPass| -> u64 {
        pass.tally.attempted += 1;
        match service.submit(stream.query(qi).clone()).wait() {
            Ok(resp) => {
                pass.tally.served += 1;
                let ns = resp.estimate_time.as_nanos() as u64;
                pass.records.push(Record {
                    qidx: qi,
                    epoch: resp.model_epoch,
                    estimates: resp.estimates,
                });
                ns
            }
            Err(_) => {
                pass.tally.query_errors += 1;
                0
            }
        }
    };

    std::thread::scope(|s| {
        let (to_path, jobs) = mpsc::channel::<(u64, u32, Vec<(SubplanMask, f64)>)>();
        let (done_tx, done) = mpsc::channel::<PathResult>();
        let cache = &cache;
        s.spawn(move || {
            for (pos, qi, computed) in jobs {
                let mut tr = Tracer::new(origin);
                let t = Instant::now();
                let (probes, hit) = service_path(
                    &mut tr,
                    pos,
                    service,
                    dataset,
                    cache,
                    stream.query(qi),
                    &computed,
                );
                let ns = t.elapsed().as_nanos() as u64;
                let spans = tr.into_spans();
                if done_tx
                    .send(PathResult {
                        ns,
                        probes,
                        hit,
                        spans,
                    })
                    .is_err()
                {
                    return;
                }
            }
        });
        let path = |pos: u64, qi: u32, computed: Vec<(SubplanMask, f64)>| {
            to_path
                .send((pos, qi, computed))
                .expect("path thread alive");
            done.recv().expect("path thread answers")
        };

        for &qi in warmup {
            worker(qi, &mut pass);
            let computed = model.estimate_subplans_with(&mut scratch, stream.query(qi), 1);
            path(u64::MAX, qi, computed);
        }

        for pos in positions {
            let qi = stream.qidx(pos);
            let q = stream.query(qi);
            pass.worker_ns += worker(qi, &mut pass);
            let t0 = Instant::now();
            let real = tr.span("core.estimate", pos, |_| {
                model.estimate_subplans_with(&mut scratch, q, 1)
            });
            let estimate_ns = t0.elapsed().as_nanos() as u64;

            let (rebuilt, multi) = tr.span("core.decomposed", pos, |tr| {
                decomposed(model, catalog, q, tr, pos, &mut profile, &mut join)
            });
            if crate::oracle::to_bits(&rebuilt) != crate::oracle::to_bits(&real) {
                pass.decomposition_mismatches += 1;
            }

            pass.queries += 1;
            pass.subplans += real.len() as u64;
            pass.multi_subplans += multi;
            pass.aliases += q.num_tables() as u64;
            pass.estimate_ns += estimate_ns;

            let r = path(pos, qi, real);
            tr.append(r.spans);
            pass.probes += r.probes;
            pass.service_path_ns += r.ns;
            if !r.hit {
                pass.misses += 1;
                pass.service_path_ns += estimate_ns;
            }
        }
    });
    pass
}

/// Isolated `Factor::join` sweep: 1/2/4 shared variables × 10/100/1000
/// bins per variable, total time over total output bins (median of 5 timed
/// rounds per shape). The innermost loop of estimation, with no
/// enumeration or profiling on top.
pub fn kernel_ns_per_bin() -> f64 {
    fn synth(vars: usize, bins: usize, shift: usize) -> Factor {
        let entries = (0..vars)
            .map(|v| {
                let var = v + shift;
                let dist = (0..bins).map(|i| ((i * 7 + var * 3) % 23) as f64).collect();
                let mfv = (0..bins).map(|i| (1 + (i + var) % 5) as f64).collect();
                (var, dist, mfv)
            })
            .collect();
        Factor::base(1000.0, entries)
    }
    let keep = KeepVars::all();
    let mut scratch = JoinScratch::default();
    let (mut total_ns, mut total_bins) = (0.0, 0.0);
    for vars in [1usize, 2, 4] {
        for bins in [10usize, 100, 1000] {
            let a = synth(vars + 1, bins, 0);
            let b = synth(vars + 1, bins, 1);
            let iters = (40_000 / bins).max(8);
            let mut rounds: Vec<f64> = (0..6)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(a.join_with(&b, &keep, &mut scratch).rows);
                    }
                    t.elapsed().as_secs_f64() * 1e9 / iters as f64
                })
                .skip(1) // the first round warms caches
                .collect();
            rounds.sort_by(f64::total_cmp);
            total_ns += rounds[rounds.len() / 2];
            // The joined factor keeps the shared variables and both
            // residual ones.
            total_bins += ((vars + 2) * bins) as f64;
        }
    }
    total_ns / total_bins
}
