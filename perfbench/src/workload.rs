//! The four workloads: their data, their query streams, and the constants
//! that define them. The database and the query pools of each dataset are
//! fixed; `--seed` draws the stream from the pool.

use factorjoin::{BaseEstimatorKind, FactorJoinConfig};
use fj_datagen::{
    imdb_catalog, imdb_job_workload, stats_catalog_split_by_date, stats_ceb_workload, DatasetKind,
    ImdbConfig, StatsConfig, WorkloadConfig,
};
use fj_query::Query;
use fj_storage::{Catalog, Value};

/// STATS scale: the training benchmark's pinned scale (~430k rows before
/// the date split), where training takes ~0.15 s, well above timer noise.
pub const STATS_SCALE: f64 = 10.0;
/// IMDB scale: training and truth stay cheap enough for a 180 s run while
/// set-up stays far above timer resolution.
pub const IMDB_SCALE: f64 = 3.0;
/// Date cutoff of the STATS insert split (~10% of rows are newer).
pub const STATS_SPLIT_DAYS: i64 = 3285;
/// Share of each IMDB table's rows held back as the insert batch.
pub const IMDB_INSERT_SHARE: f64 = 0.1;
/// Hot-set size of the replay workloads.
pub const HOT_SET: usize = 32;
/// Queries of the dataset's fixed paper-shaped workload whose sub-plans
/// are audited for q-error. The audit set does not depend on `--seed`, so
/// q-error moves only when estimation changes.
pub const AUDIT_QUERIES: usize = 48;
/// Fresh-stream queries used to warm code paths before timing.
pub const FRESH_WARMUP: usize = 256;
/// Slices the insert batch is cut into; `update_s` is the median over
/// every slice applied in a run.
pub const UPDATE_SLICES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StatsFresh,
    StatsReplay,
    ImdbFresh,
    StatsUpdate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StatsFresh,
        Workload::StatsReplay,
        Workload::ImdbFresh,
        Workload::StatsUpdate,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::StatsFresh => "stats-fresh",
            Workload::StatsReplay => "stats-replay",
            Workload::ImdbFresh => "imdb-fresh",
            Workload::StatsUpdate => "stats-update",
        }
    }

    pub fn dataset(self) -> &'static str {
        match self {
            Workload::ImdbFresh => "imdb",
            _ => "stats",
        }
    }

    pub fn replays(self) -> bool {
        matches!(self, Workload::StatsReplay | Workload::StatsUpdate)
    }

    /// Open-loop offered rate (queries/s): a constant, so later changes
    /// are compared at the same offered load, near a quarter of the
    /// closed-loop capacity measured on a quiet 2-vCPU VM. At half that
    /// capacity the open loop saturated whenever the hypervisor granted the
    /// VM less CPU, and the median latency then measured a growing queue.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::StatsFresh => 4_000.0,
            Workload::StatsReplay | Workload::StatsUpdate => 8_000.0,
            Workload::ImdbFresh => 1_100.0,
        }
    }

    /// Fresh-stream queries generated per measured second: above the
    /// stream's closed-loop capacity, so the stream rarely wraps.
    fn fresh_per_second(self) -> usize {
        match self {
            Workload::ImdbFresh => 5_000,
            _ => 11_000,
        }
    }
}

/// Rows held back for later insertion, per table.
pub type Inserts = Vec<(String, Vec<Vec<Value>>)>;

/// The fixed database of a workload, split into the part the model is
/// trained on and the insert batch applied later in slices.
pub struct Data {
    pub base: Catalog,
    pub inserts: Inserts,
    pub config: FactorJoinConfig,
}

pub fn build_data(w: Workload) -> Data {
    match w.dataset() {
        "stats" => {
            let cfg = StatsConfig {
                scale: STATS_SCALE,
                ..Default::default()
            };
            let (base, inserts) = stats_catalog_split_by_date(&cfg, STATS_SPLIT_DAYS);
            Data {
                base,
                inserts,
                config: FactorJoinConfig::default(),
            }
        }
        _ => {
            let full = imdb_catalog(&ImdbConfig {
                scale: IMDB_SCALE,
                ..Default::default()
            });
            let (base, inserts) = split_tail(&full, IMDB_INSERT_SHARE);
            Data {
                base,
                inserts,
                config: FactorJoinConfig {
                    estimator: BaseEstimatorKind::Sampling { rate: 0.05 },
                    ..Default::default()
                },
            }
        }
    }
}

/// Holds back the last `share` of each table's rows as inserts (IMDB has
/// no common date column to split on).
fn split_tail(full: &Catalog, share: f64) -> (Catalog, Inserts) {
    let mut base = Catalog::new();
    let mut inserts = Vec::new();
    for table in full.tables() {
        let n = table.nrows();
        let keep = n - (n as f64 * share).floor() as usize;
        let rows: Vec<usize> = (0..keep).collect();
        base.add_table(table.select_rows(table.name(), &rows))
            .expect("fresh catalog");
        if keep < n {
            inserts.push((
                table.name().to_string(),
                (keep..n).map(|i| table.row(i)).collect(),
            ));
        }
    }
    DatasetKind::Imdb.declare_relations(&mut base);
    (base, inserts)
}

/// A seeded query stream: a pool of generated queries and the order the
/// load generator sends them in. Position `p` sends `pool[order[p % len]]`.
pub struct Stream {
    pub pool: Vec<Query>,
    order: Vec<u32>,
    /// Pool indices sent before timing starts.
    pub warmup: Vec<u32>,
    /// The fixed audit queries (never sent to the server).
    pub audit: Vec<Query>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn qidx(&self, pos: u64) -> u32 {
        self.order[(pos % self.order.len() as u64) as usize]
    }

    pub fn query(&self, qidx: u32) -> &Query {
        &self.pool[qidx as usize]
    }

    /// The query set-up, cold-start and update probes send.
    pub fn probe(&self) -> u32 {
        self.warmup[0]
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The dataset's paper-shaped workload (STATS-CEB: 2–6 tables; IMDB-JOB:
/// 3–8 tables, cyclic joins, `LIKE`) with its own fixed seed.
fn paper_config(w: Workload) -> WorkloadConfig {
    match w.dataset() {
        "stats" => WorkloadConfig::stats_ceb(),
        _ => WorkloadConfig::imdb_job(),
    }
}

/// Templates per generated pool: far more than the paper workload's, so
/// the pool's mean query cost does not hinge on a few templates.
const POOL_TEMPLATES: usize = 1024;

/// Seed of the query pools. The pools are fixed; `--seed` draws the order
/// queries are sent in (and, for fresh streams, which pool queries are
/// sent at all). A run-to-run comparison then measures the system, not a
/// different mix of query sizes.
const POOL_SEED: u64 = 0x0f1e_2d3c_4b5a_6978;

/// A seeded Fisher–Yates permutation of `items`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut x = seed;
    for i in (1..items.len()).rev() {
        x = splitmix(x);
        items.swap(i, (x % (i as u64 + 1)) as usize);
    }
}

/// Builds the stream of workload `w` for `seed`, sized for `seconds`.
pub fn build_stream(w: Workload, catalog: &Catalog, seed: u64, seconds: u64) -> Stream {
    let generate = |cfg: WorkloadConfig| match w.dataset() {
        "stats" => stats_ceb_workload(catalog, &cfg),
        _ => imdb_job_workload(catalog, &cfg),
    };
    let paper = paper_config(w);
    let audit = generate(WorkloadConfig {
        num_queries: AUDIT_QUERIES,
        ..paper
    });
    let pool_cfg = |num_queries: usize| WorkloadConfig {
        seed: POOL_SEED,
        num_queries,
        num_templates: POOL_TEMPLATES.min(num_queries),
        ..paper
    };
    let order_seed = splitmix(seed ^ splitmix(w as u64 + 1));
    if w.replays() {
        // A hot set replayed in seeded random order, the way a fleet of
        // optimizers re-plans prepared statements. The hot set holds the
        // same number of queries of each size.
        let candidates = generate(pool_cfg(HOT_SET * 16));
        let sizes: Vec<usize> = (paper.min_tables..=paper.max_tables).collect();
        let mut pool = Vec::with_capacity(HOT_SET);
        for (k, &size) in sizes.iter().enumerate() {
            let want = HOT_SET * (k + 1) / sizes.len() - HOT_SET * k / sizes.len();
            pool.extend(
                candidates
                    .iter()
                    .filter(|q| q.num_tables() == size)
                    .take(want)
                    .cloned(),
            );
        }
        assert_eq!(pool.len(), HOT_SET, "every query size drawn often enough");
        let mut x = order_seed;
        let order = (0..1 << 16)
            .map(|_| {
                x = splitmix(x);
                (x % HOT_SET as u64) as u32
            })
            .collect();
        let all: Vec<u32> = (0..HOT_SET as u32).collect();
        Stream {
            pool,
            order,
            warmup: [all.clone(), all].concat(),
            audit,
        }
    } else {
        // Half again as many queries as a run sends, so each seed sends a
        // different subset, each query at most once.
        let n = FRESH_WARMUP + w.fresh_per_second() * seconds.max(1) as usize * 3 / 2;
        let pool = generate(pool_cfg(n));
        let warmup = (0..FRESH_WARMUP as u32).collect();
        let mut order: Vec<u32> = (FRESH_WARMUP as u32..n as u32).collect();
        shuffle(&mut order, order_seed);
        Stream {
            pool,
            order,
            warmup,
            audit,
        }
    }
}
