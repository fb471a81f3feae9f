//! One serving benchmark for FactorJoin.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stats-fresh --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Starts the real `fj-service` serving stack (`FjServer`, production
//! defaults, sub-plan cache on) on loopback, drives it as an optimizer
//! fleet would, checks every served estimate bit for bit against the
//! in-process model of the epoch that served it, and prints every metric
//! with its unit and sample count. The last line of standard output is one
//! JSON object: with `--trace 0` the end-to-end metrics, with `--trace 1`
//! the per-layer ledger of a separate traced run. See `README.md` here for
//! the workloads, the metrics and which layer should move which number.

mod cpu;
mod layers;
mod ledger;
mod loadgen;
mod oracle;
mod trace;
mod workload;

use factorjoin::{FactorJoinModel, ModelDelta};
use fj_exec::TrueCardEngine;
use fj_service::{FjClient, FjServer, ModelRegistry, ServerConfig, ServiceConfig, ShardSpec};
use fj_storage::Catalog;
use ledger::{backlog_grew, median_of, window_rates, windowed_percentile, Dist, Tally};
use loadgen::Phase;
use oracle::{Oracle, Record};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Data, Stream, Workload, UPDATE_SLICES};

/// Set-ups per run, one before the rounds and one in each; `setup_s` is
/// their median.
const SETUP_REPEATS: usize = ROUNDS + 1;
/// Cold starts per run; `cold_start_cpu_s` is their median.
const COLD_REPEATS: usize = 24;
/// The measured part of a run is cut into this many rounds, each an
/// open-loop segment, a closed-loop segment, one set-up, its share of the
/// cold starts and one pass of the insert slices on a side server (on
/// stats-update instead its share of the slices, inside the open-loop
/// segment). The host of a
/// virtual machine changes how much CPU it grants over seconds, so a
/// metric measured in one stretch of a run reads whatever the host did
/// then; spread over every round, it averages the host out.
const ROUNDS: usize = 8;
const _: () = assert!(COLD_REPEATS.is_multiple_of(ROUNDS) && UPDATE_SLICES.is_multiple_of(ROUNDS));
/// Requests each closed-loop connection keeps in flight: deep enough that
/// the server always has work queued, so its threads rarely sleep and
/// per-CPU-second throughput does not hinge on how the host schedules
/// their wake-ups (at 4 in flight it swung by a quarter between runs).
const CLOSED_DEPTH: usize = 32;
/// A closed-loop query counts toward `goodput_qps` when it completes
/// within this limit (send → last estimate).
const GOODPUT_LIMIT_US: f64 = 20_000.0;
/// Share of `--seconds` spent in the open loop; the closed loop gets the
/// rest.
const OPEN_SHARE: f64 = 0.6;
/// Open-loop p99s and closed-loop rates are taken per window and reported
/// as the median over windows (closed-loop windows: per round).
const OPEN_WINDOWS: usize = 6;
const CLOSED_WINDOWS: usize = 2;
/// Window length for `plan_p50_us` (see its computation).
const LATENCY_WINDOW_S: f64 = 0.05;
/// `plan_p50_us` is this quantile of the per-window p50s.
const LATENCY_WINDOW_QUANTILE: f64 = 0.1;
/// Queries the traced layer pass covers.
const LAYER_QUERIES: u64 = 1_500;
/// The traced run fails when a layer ledger leaves more than this share
/// of the whole unattributed, in either direction.
const RECONCILE_TOLERANCE: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    tally: Tally,
    /// Reasons the run is not correct (empty = correct).
    faults: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// A percentile, or a fault when the sample does not support it.
    fn pct(&mut self, name: &'static str, dist: &Dist, q: f64, unit: &'static str) {
        match dist.percentile(q) {
            Some(v) => self.put(name, v, unit, dist.len()),
            None => self.faults.push(format!(
                "{name}: {} samples cannot support p{}",
                dist.len(),
                q * 100.0
            )),
        }
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.faults.is_empty(),
            self.tally.attempted.max(1),
            self.tally.failed()
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Where the run writes its model files and span dump: inside the
/// checkout, under the build directory `.gitignore` already excludes.
fn out_dir(w: Workload, seed: u64) -> PathBuf {
    let dir = Path::new(".bench_build").join("perfbench").join(format!(
        "{}-{seed}-{}",
        w.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create the run's output directory");
    dir
}

/// The serving stack as a user starts it: trained model, registry, server.
struct Serving {
    server: FjServer,
    registry: Arc<ModelRegistry>,
    model: Arc<FactorJoinModel>,
    setup_s: Vec<f64>,
    train_s: Vec<f64>,
    probes: Phase,
}

/// Trains, publishes, binds and serves the first estimate, `untimed`
/// times and then `repeats` times timed (a fresh process on a VM runs its
/// first CPU-heavy second measurably slower); keeps the last stack. Data
/// generation happens before.
fn set_up(w: Workload, data: &Data, stream: &Stream, untimed: usize, repeats: usize) -> Serving {
    let ds = w.dataset();
    let probe = [stream.probe()];
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut probes = Phase::default();
    let mut last = None;
    for round in 0..untimed + repeats {
        let t0 = Instant::now();
        let model = Arc::new(FactorJoinModel::train(&data.base, data.config.clone()));
        let trained = t0.elapsed().as_secs_f64();
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ds, Arc::clone(&model));
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::with_registry(ds, Arc::clone(&registry))],
            ServerConfig::new(2),
        )
        .expect("bind a loopback port");
        let mut client = FjClient::connect(server.local_addr()).expect("connect to the server");
        let first = loadgen::tcp_sequential(&mut client, ds, stream, &probe);
        if round >= untimed {
            setup_s.push(t0.elapsed().as_secs_f64());
            train_s.push(trained);
        }
        probes.merge(first);
        drop(client);
        if let Some((old, _, _)) = last.replace((server, registry, model)) {
            FjServer::shutdown(old);
        }
    }
    let (server, registry, model) = last.expect("at least one set-up");
    Serving {
        server,
        registry,
        model,
        setup_s,
        train_s,
        probes,
    }
}

/// What the cold starts measured, per repeat.
#[derive(Default)]
struct ColdStarts {
    wall: Vec<f64>,
    /// CPU time of the whole process over the same interval (the other
    /// server's threads are idle meanwhile).
    cpu: Vec<f64>,
    probes: Phase,
}

/// `.fjm` file → `load_and_publish` on a fresh server → first served
/// estimate, `repeats` times (the bind and connect happen before the
/// clock starts).
fn cold_starts(
    w: Workload,
    path: &Path,
    catalog: &Arc<Catalog>,
    stream: &Stream,
    repeats: usize,
) -> ColdStarts {
    let ds = w.dataset();
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let mut probes = Phase::default();
    for _ in 0..repeats {
        let registry = Arc::new(ModelRegistry::new());
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::with_registry(ds, Arc::clone(&registry))],
            ServerConfig::new(2),
        )
        .expect("bind a loopback port");
        let mut client = FjClient::connect(server.local_addr()).expect("connect to the server");
        let t0 = Instant::now();
        let c0 = cpu::process_seconds();
        registry
            .load_and_publish(ds, path, Arc::clone(catalog))
            .expect("load the saved model");
        let first = loadgen::tcp_sequential(&mut client, ds, stream, &[stream.probe()]);
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push(cpu::process_seconds() - c0);
        probes.merge(first);
        drop(client);
        server.shutdown();
    }
    ColdStarts { wall, cpu, probes }
}

impl ColdStarts {
    fn merge(&mut self, o: ColdStarts) {
        self.wall.extend(o.wall);
        self.cpu.extend(o.cpu);
        self.probes.merge(o.probes);
    }
}

/// What the insert slices measured.
struct Updates {
    /// `apply_insert` call, per slice.
    apply_s: Vec<f64>,
    /// `apply_insert` start → first estimate served under the new epoch.
    update_s: Vec<f64>,
    probes: Phase,
    /// The catalog with every slice applied so far appended.
    catalog: Catalog,
}

impl Updates {
    fn new(data: &Data) -> Updates {
        Updates {
            apply_s: Vec::new(),
            update_s: Vec::new(),
            probes: Phase::default(),
            catalog: data.base.clone(),
        }
    }

    /// Folds in the timings and probes of another pass (its catalog is
    /// dropped).
    fn merge(&mut self, o: Updates) {
        self.apply_s.extend(o.apply_s);
        self.update_s.extend(o.update_s);
        self.probes.merge(o.probes);
    }
}

/// All insert slices, on a freshly bound server whose registry starts from
/// `model` as the serving stack's did; its epochs, and so the models the
/// oracle keeps for them, are the serving stack's.
fn update_pass(
    w: Workload,
    model: &Arc<FactorJoinModel>,
    data: &Data,
    stream: &Stream,
    oracle: &Oracle,
) -> Updates {
    let ds = w.dataset();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ds, Arc::clone(model));
    let server = FjServer::bind(
        "127.0.0.1:0",
        vec![ShardSpec::with_registry(ds, Arc::clone(&registry))],
        ServerConfig::new(2),
    )
    .expect("bind a loopback port");
    let mut updates = Updates::new(data);
    let addr = server.local_addr();
    let slices = 0..UPDATE_SLICES;
    apply_slices(
        w,
        &registry,
        data,
        addr,
        stream,
        oracle,
        &mut updates,
        slices,
        None,
    );
    server.shutdown();
    updates
}

/// Applies slices `slices` of the insert batch (cut into [`UPDATE_SLICES`])
/// through the server's registry, in order, after those `updates` already
/// holds. With `spacing`, the `j`-th slice of the range starts at
/// `start + (j + ½)·every` (so it lands inside a concurrent read phase).
#[allow(clippy::too_many_arguments)]
fn apply_slices(
    w: Workload,
    registry: &ModelRegistry,
    data: &Data,
    addr: SocketAddr,
    stream: &Stream,
    oracle: &Oracle,
    updates: &mut Updates,
    slices: std::ops::Range<usize>,
    spacing: Option<(Instant, Duration)>,
) {
    let ds = w.dataset();
    let Updates {
        apply_s,
        update_s,
        probes,
        catalog,
    } = updates;
    let mut client = FjClient::connect(addr).expect("connect to the server");
    let first_slice = slices.start;
    for k in slices {
        let mut delta = ModelDelta::new();
        for (table, rows) in &data.inserts {
            let (lo, hi) = (
                rows.len() * k / UPDATE_SLICES,
                rows.len() * (k + 1) / UPDATE_SLICES,
            );
            if lo == hi {
                continue;
            }
            let t = catalog.table_mut(table).expect("insert table in catalog");
            let first = t.nrows();
            t.append_rows(&rows[lo..hi])
                .expect("insert rows match the schema");
            delta.record(t, first);
        }
        if let Some((start, every)) = spacing {
            loadgen::wait_until(start + every.mul_f64((k - first_slice) as f64 + 0.5));
        }
        let t0 = Instant::now();
        let epoch = registry
            .apply_insert(ds, catalog, &delta)
            .expect("dataset is registered");
        apply_s.push(t0.elapsed().as_secs_f64());
        loop {
            let p = loadgen::tcp_sequential(&mut client, ds, stream, &[stream.probe()]);
            let fresh = p.records.iter().any(|r| r.epoch >= epoch);
            let failed = p.tally.failed() > 0;
            probes.merge(p);
            if fresh || failed {
                break;
            }
        }
        update_s.push(t0.elapsed().as_secs_f64());
        oracle.keep(&registry.get(ds).expect("dataset is registered"));
    }
}

/// q-error of every sub-plan of the audit queries, against exact
/// cardinalities on the training catalog.
fn qerrors(model: &FactorJoinModel, catalog: &Catalog, stream: &Stream) -> Dist {
    let mut q = Vec::new();
    for query in &stream.audit {
        let truth = TrueCardEngine::new(catalog, query).subplan_cardinalities(query, 1);
        let est = model.estimate_subplans(query, 1);
        assert_eq!(
            truth.len(),
            est.len(),
            "truth and estimate cover the same sub-plans"
        );
        for ((m1, t), (m2, e)) in truth.into_iter().zip(est) {
            assert_eq!(m1, m2, "sub-plan order");
            let (t, e) = (t.max(1.0), e.max(1.0));
            q.push((t / e).max(e / t));
        }
    }
    Dist::new(q)
}

/// Checks every record against the oracle and folds the result into the
/// report's tally and faults.
fn verify(report: &mut Report, oracle: &Oracle, stream: &Stream, phases: &[&Phase]) {
    let records: Vec<&Record> = phases.iter().flat_map(|p| &p.records).collect();
    let mut tally = Tally::default();
    for p in phases {
        tally.add(&p.tally);
    }
    tally.mismatches = oracle.mismatches(stream, &records, 2);
    if tally.mismatches > 0 {
        report.faults.push(format!(
            "{} of {} served queries differ from the in-process model",
            tally.mismatches,
            records.len()
        ));
    }
    if tally.failed() > tally.mismatches {
        report.faults.push(format!(
            "{} queries failed: {tally:?}",
            tally.failed() - tally.mismatches
        ));
    }
    report.tally = tally;
}

/// End-to-end run: every metric a user of the serving stack would see.
fn untraced(args: &Args) -> Report {
    let w = args.workload;
    let ds = w.dataset();
    let data = workload::build_data(w);
    let stream = workload::build_stream(w, &data.base, args.seed, args.seconds);
    let oracle = Oracle::default();
    let mut report = Report::default();

    let mut serving = set_up(w, &data, &stream, 1, SETUP_REPEATS - ROUNDS);
    oracle.keep(&serving.registry.get(ds).expect("published"));
    let addr = serving.server.local_addr();
    let dir = out_dir(w, args.seed);
    let model_path = dir.join("model.fjm");
    factorjoin::save_model(&serving.model, &model_path).expect("save the model");
    let model_bytes = std::fs::metadata(&model_path).expect("saved model").len();
    let quality = qerrors(&serving.model, &data.base, &stream);

    let catalog = Arc::new(data.base.clone());
    let mut updates = Updates::new(&data);
    let mut client = FjClient::connect(addr).expect("connect to the server");
    let warm = loadgen::tcp_sequential(&mut client, ds, &stream, &stream.warmup);
    drop(client);
    serving.server.reset_stats(ds);

    let seconds = Duration::from_secs(args.seconds);
    let open_window = seconds.mul_f64(OPEN_SHARE / ROUNDS as f64);
    let closed_window = seconds.div_f64(ROUNDS as f64) - open_window;
    let (mut open, mut closed) = (Phase::default(), Phase::default());
    let mut cold = ColdStarts::default();
    // Per closed-loop window: sub-plans per wall second, sub-plans per CPU
    // second, and queries within the goodput limit per wall second.
    let (mut subplan_rates, mut cpu_rates, mut goodputs) = (Vec::new(), Vec::new(), Vec::new());
    let mut closed_cpu_s = 0.0;
    let mut backlog = false;
    let mut pos = 0;
    for round in 0..ROUNDS {
        let segment = std::thread::scope(|s| {
            let concurrent = (w == Workload::StatsUpdate).then(|| {
                let (registry, data, stream, oracle) = (&serving.registry, &data, &stream, &oracle);
                let updates = &mut updates;
                // This round's slices land in its open-loop segment, under
                // the fixed offered load; under the saturating closed loop
                // an update would time the CPU contention instead.
                let per_round = UPDATE_SLICES / ROUNDS;
                let slices = round * per_round..(round + 1) * per_round;
                let every = open_window.div_f64(per_round as f64);
                let start = Instant::now();
                s.spawn(move || {
                    let spacing = Some((start, every));
                    apply_slices(
                        w, registry, data, addr, stream, oracle, updates, slices, spacing,
                    )
                })
            });
            let segment =
                loadgen::tcp_open_loop(addr, ds, &stream, pos, w.open_rate(), open_window, None);
            if let Some(h) = concurrent {
                h.join().expect("updater panicked");
            }
            segment
        });
        let late: Vec<f64> = segment.timings.iter().map(|t| t.late_us).collect();
        backlog |= backlog_grew(&late, 1_000.0);
        pos = segment.next_pos;
        open.merge(segment);

        let segment = loadgen::tcp_closed_loop(
            addr,
            ds,
            &stream,
            pos,
            CLOSED_DEPTH,
            closed_window,
            CLOSED_WINDOWS,
        );
        let span = closed_window.as_secs_f64();
        let subplans: Vec<(f64, f64)> = segment
            .completions
            .iter()
            .map(|c| (c.0, c.1 as f64))
            .collect();
        let per_s = window_rates(&subplans, span, CLOSED_WINDOWS);
        // Per CPU-second of the whole process (server and load
        // generator): wall-clock throughput on a shared VM swings with how
        // much CPU the hypervisor grants, CPU-time throughput much less.
        cpu_rates.extend(
            per_s
                .iter()
                .zip(segment.cpu_marks.windows(2))
                .map(|(r, marks)| r * span / CLOSED_WINDOWS as f64 / (marks[1] - marks[0])),
        );
        subplan_rates.extend(per_s);
        closed_cpu_s += segment.cpu_marks[CLOSED_WINDOWS] - segment.cpu_marks[0];
        let good: Vec<(f64, f64)> = segment
            .completions
            .iter()
            .filter(|c| c.2 <= GOODPUT_LIMIT_US)
            .map(|c| (c.0, 1.0))
            .collect();
        goodputs.extend(window_rates(&good, span, CLOSED_WINDOWS));
        pos = segment.next_pos;
        closed.merge(segment);

        let extra = set_up(w, &data, &stream, 0, 1);
        FjServer::shutdown(extra.server);
        serving.setup_s.extend(extra.setup_s);
        serving.probes.merge(extra.probes);

        cold.merge(cold_starts(
            w,
            &model_path,
            &catalog,
            &stream,
            COLD_REPEATS / ROUNDS,
        ));
        if w != Workload::StatsUpdate {
            updates.merge(update_pass(w, &serving.model, &data, &stream, &oracle));
        }
    }
    if pos > stream.len() as u64 && !w.replays() {
        println!("note: the fresh stream wrapped; later queries repeat earlier ones");
    }

    // Set-up and cold start.
    println!("setup repeats (s): {:?}", serving.setup_s);
    println!(
        "cold_start_s {:.4} s wall (n={}; printed, not gated)",
        median_of(&cold.wall),
        cold.wall.len()
    );
    report.put(
        "setup_s",
        median_of(&serving.setup_s),
        "s",
        serving.setup_s.len(),
    );
    report.put(
        "cold_start_cpu_s",
        median_of(&cold.cpu),
        "s",
        cold.cpu.len(),
    );
    // Open loop at the fixed offered rate: every segment has the same
    // number of requests, so equal-count windows of the concatenated
    // timings are equal-time windows of the segments.
    let latency: Vec<f64> = open.timings.iter().map(|t| t.latency_us).collect();
    // The p50 of each 50 ms window, and the lower tenth of those: a
    // virtual machine's host can stall it for milliseconds at a time, or
    // starve it for seconds, and a starved window's median measures the
    // host. A slower system raises every window, so it still shows.
    let open_s = open_window.as_secs_f64() * ROUNDS as f64;
    let windows = ((open_s / LATENCY_WINDOW_S).round() as usize).max(1);
    match ledger::window_percentiles(&latency, windows, 0.5) {
        Some(p50s) => report.put(
            "plan_p50_us",
            ledger::quantile_of(&p50s, LATENCY_WINDOW_QUANTILE),
            "us",
            latency.len(),
        ),
        None => report.faults.push(format!(
            "plan_p50_us: {} samples in {windows} windows cannot support p50",
            latency.len()
        )),
    }
    // Saturating closed loop.
    let completed = closed.completions.len();
    let (subplans_per_s, goodput) = (median_of(&subplan_rates), median_of(&goodputs));
    report.put(
        "subplans_per_cpu_s",
        median_of(&cpu_rates),
        "1/s",
        completed,
    );
    // Estimate quality.
    report.pct("qerror_p50", &quality, 0.5, "ratio");
    report.pct("qerror_p95", &quality, 0.95, "ratio");
    // Updates and model size.
    report.put(
        "update_s",
        median_of(&updates.update_s),
        "s",
        updates.update_s.len(),
    );
    report.put("model_bytes", model_bytes as f64, "B", 1);

    verify(
        &mut report,
        &oracle,
        &stream,
        &[
            &serving.probes,
            &warm,
            &open,
            &closed,
            &updates.probes,
            &cold.probes,
        ],
    );
    let late = Dist::new(open.timings.iter().map(|t| t.late_us).collect());
    println!(
        "closed loop (printed, not gated): subplans_per_s {subplans_per_s:.1} 1/s, \
         goodput_qps {goodput:.1} 1/s (≤ {:.0} ms; n={completed}, median of {} windows), \
         CPU busy {:.0}% of 2 cores",
        GOODPUT_LIMIT_US / 1e3,
        goodputs.len(),
        100.0 * closed_cpu_s / (closed_window.as_secs_f64() * ROUNDS as f64) / 2.0
    );
    println!(
        "plan_p99_us {:.1} us (n={}, median of {OPEN_WINDOWS} window p99s; printed, not gated)",
        windowed_percentile(&latency, OPEN_WINDOWS, 0.99).unwrap_or(f64::NAN),
        latency.len()
    );
    println!(
        "open loop: {} q/s offered, {} sent, {} answered, generator late p50 {:.1} us, backlog grew: {}",
        w.open_rate(),
        open.tally.attempted,
        open.timings.len(),
        late.median().unwrap_or(f64::NAN),
        backlog
    );
    println!(
        "error_rate {:.6} ratio (n={}): {:?}",
        report.tally.error_rate(),
        report.tally.attempted,
        report.tally
    );
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Traced run: the per-layer ledger, from spans the benchmark records
/// around its own calls into each layer.
fn traced(args: &Args) -> Report {
    let w = args.workload;
    let ds = w.dataset();
    let data = workload::build_data(w);
    let stream = workload::build_stream(w, &data.base, args.seed, args.seconds);
    let oracle = Oracle::default();
    let mut report = Report::default();
    let origin = Instant::now();
    let mut tr = trace::Tracer::new(origin);

    let serving = set_up(w, &data, &stream, 1, 3);
    oracle.keep(&serving.registry.get(ds).expect("published"));
    let addr = serving.server.local_addr();
    let model = Arc::clone(&serving.model);
    let dir = out_dir(w, args.seed);

    // core: persist.
    let path = dir.join("model.fjm");
    let mut save_s = Vec::new();
    let mut load_s = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        tr.span("core.save", 0, |_| factorjoin::save_model(&model, &path))
            .expect("save");
        save_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        tr.span("core.load", 0, |_| {
            factorjoin::load_model(&path, &data.base)
        })
        .expect("load");
        load_s.push(t.elapsed().as_secs_f64());
    }

    // TCP open loop, untraced and traced, at the workload's rate.
    let mut client = FjClient::connect(addr).expect("connect to the server");
    let warm = loadgen::tcp_sequential(&mut client, ds, &stream, &stream.warmup);
    drop(client);
    serving.server.reset_stats(ds);
    // Untraced and traced windows alternate, so the tracing overhead is
    // not confounded with drift in machine speed.
    let window = Duration::from_secs(args.seconds).div_f64(12.0);
    let (mut plain, mut traced_open) = (Phase::default(), Phase::default());
    let (mut plain_p50s, mut traced_p50s) = (Vec::new(), Vec::new());
    let mut next = 0;
    for k in 0..6 {
        let traced = k % 2 == 1;
        let p = loadgen::tcp_open_loop(
            addr,
            ds,
            &stream,
            next,
            w.open_rate(),
            window,
            traced.then_some(origin),
        );
        next = p.next_pos;
        let p50 = Dist::new(p.timings.iter().map(|t| t.latency_us).collect()).median();
        let p50 = p50.unwrap_or(f64::NAN);
        if traced {
            traced_p50s.push(p50);
            traced_open.merge(p);
        } else {
            plain_p50s.push(p50);
            plain.merge(p);
        }
    }
    let server_stats = serving.server.stats(ds).expect("shard stats");

    // In-process service at the same rate, on its own registry and cache.
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ds, Arc::clone(&model));
    let service = fj_service::EstimatorService::start(registry, ServiceConfig::new(ds, 2));
    for &qi in &stream.warmup {
        service
            .submit(stream.query(qi).clone())
            .wait()
            .expect("warm-up served");
    }
    service.reset_stats();
    let first = next;
    let quarter = Duration::from_secs(args.seconds).div_f64(4.0);
    let (inproc, svc_timings) =
        loadgen::inproc_open_loop(&service, &stream, first, w.open_rate(), quarter);
    let svc_stats = service.stats();
    service.shutdown();

    // Layer pass, with a fresh in-process service serving each query just
    // before the benchmark replays it layer by layer.
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ds, Arc::clone(&model));
    let service = fj_service::EstimatorService::start(registry, ServiceConfig::new(ds, 2));
    let mut pass = layers::run(
        &model,
        &data.base,
        &stream,
        &service,
        ds,
        &stream.warmup,
        first..first + LAYER_QUERIES,
        &mut tr,
    );
    service.shutdown();
    let sequential = Phase {
        tally: pass.tally,
        records: std::mem::take(&mut pass.records),
        ..Phase::default()
    };
    let kernel = layers::kernel_ns_per_bin();

    // Updates: registry.apply_insert per slice, then core.updated_with on
    // the whole batch.
    let mut updates = Updates::new(&data);
    let (registry, slices) = (&serving.registry, 0..UPDATE_SLICES);
    apply_slices(
        w,
        registry,
        &data,
        addr,
        &stream,
        &oracle,
        &mut updates,
        slices,
        None,
    );
    let mut delta = ModelDelta::new();
    for (table, _) in &data.inserts {
        let first_new = data.base.table(table).expect("table").nrows();
        delta.record(updates.catalog.table(table).expect("table"), first_new);
    }
    let mut update_s = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let m = tr.span("core.update", 0, |_| {
            model.updated_with(&updates.catalog, &delta)
        });
        update_s.push(t.elapsed().as_secs_f64());
        drop(m);
    }

    // Ledger.
    let spans = {
        let mut spans = tr.into_spans();
        let base = spans.len();
        for mut s in traced_open.spans.iter().cloned() {
            s.parent = s.parent.map(|p| p + base);
            spans.push(s);
        }
        spans
    };
    let by_name = trace::self_time_by_name(&spans);
    let total = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let q = pass.queries.max(1) as f64;
    let estimate_us = pass.estimate_ns as f64 / q / 1e3;
    let graph_us = total("query.graph") / q / 1e3;
    let enumerate_us = total("query.enumerate") / q / 1e3;
    let profile_us = total("stats.profile") / q / 1e3;
    let join_us = total("core.join") / q / 1e3;
    let base_us = total("core.base_factor") / q / 1e3;

    report.put("query.graph_us", graph_us, "us", pass.queries as usize);
    report.put(
        "query.enumerate_us",
        enumerate_us,
        "us",
        pass.queries as usize,
    );
    report.put(
        "query.subplans_per_query",
        pass.subplans as f64 / q,
        "count",
        pass.queries as usize,
    );
    report.put(
        "query.fingerprint_us",
        total("query.fingerprint") / q / 1e3,
        "us",
        pass.queries as usize,
    );
    report.put(
        "stats.profile_us_per_alias",
        total("stats.profile") / pass.aliases.max(1) as f64 / 1e3,
        "us",
        pass.aliases as usize,
    );
    report.put(
        "stats.aliases_per_query",
        pass.aliases as f64 / q,
        "count",
        pass.queries as usize,
    );
    report.put(
        "core.estimate_us_per_query",
        estimate_us,
        "us",
        pass.queries as usize,
    );
    report.put("core.base_factor_us", base_us, "us", pass.queries as usize);
    report.put(
        "core.join_ns_per_subplan",
        total("core.join") / pass.multi_subplans.max(1) as f64,
        "ns",
        pass.multi_subplans as usize,
    );
    report.put("core.kernel_ns_per_bin", kernel, "ns", 9);
    report.put(
        "core.train_s",
        median_of(&serving.train_s),
        "s",
        serving.train_s.len(),
    );
    report.put("core.save_s", median_of(&save_s), "s", save_s.len());
    report.put("core.load_s", median_of(&load_s), "s", load_s.len());
    report.put("core.update_s", median_of(&update_s), "s", update_s.len());
    report.put("core.model_bytes", model.model_bytes() as f64, "B", 1);

    let queue_wait = Dist::new(svc_timings.iter().map(|t| t.queue_wait_us).collect());
    let svc_estimate = Dist::new(svc_timings.iter().map(|t| t.estimate_us).collect());
    report.pct("service.queue_wait_p50_us", &queue_wait, 0.5, "us");
    report.pct("service.queue_wait_p99_us", &queue_wait, 0.99, "us");
    report.pct("service.estimate_p50_us", &svc_estimate, 0.5, "us");
    report.put(
        "service.queue_high_water",
        svc_stats.queue_high_water as f64,
        "count",
        svc_timings.len(),
    );
    let lookups = server_stats.cache_hits + server_stats.cache_misses;
    report.put(
        "service.cache_hit_rate",
        server_stats.cache_hit_rate(),
        "ratio",
        lookups as usize,
    );
    report.put(
        "service.cache_evictions",
        server_stats.cache_evictions as f64,
        "count",
        lookups as usize,
    );
    report.put(
        "service.cache_get_ns",
        total("service.cache_probe") / pass.probes.max(1) as f64,
        "ns",
        pass.probes as usize,
    );
    report.put(
        "registry.apply_insert_s",
        median_of(&updates.apply_s),
        "s",
        updates.apply_s.len(),
    );

    let tcp_latency = Dist::new(plain.timings.iter().map(|t| t.latency_us).collect());
    let inproc_latency = Dist::new(inproc.timings.iter().map(|t| t.latency_us).collect());
    let (tcp_p50, inproc_p50) = (
        tcp_latency.median().unwrap_or(f64::NAN),
        inproc_latency.median().unwrap_or(f64::NAN),
    );
    let (plain_p50, traced_p50) = (median_of(&plain_p50s), median_of(&traced_p50s));
    report.put(
        "server.wire_us",
        tcp_p50 - inproc_p50,
        "us",
        tcp_latency.len(),
    );
    report.put(
        "server.rejected",
        server_stats.rejected as f64,
        "count",
        lookups as usize,
    );
    report.put(
        "server.shed",
        server_stats.shed as f64,
        "count",
        lookups as usize,
    );
    report.put(
        "server.expired",
        server_stats.expired as f64,
        "count",
        lookups as usize,
    );
    report.pct("loadgen.plan_p99_us", &tcp_latency, 0.99, "us");
    let late = Dist::new(plain.timings.iter().map(|t| t.late_us).collect());
    report.pct("loadgen.late_p99_us", &late, 0.99, "us");
    report.put("loadgen.sent", plain.tally.attempted as f64, "count", 1);
    report.put("loadgen.completed", plain.timings.len() as f64, "count", 1);
    report.put(
        "trace.overhead_us",
        traced_p50 - plain_p50,
        "us",
        traced_open.timings.len(),
    );

    // Reconciliation 1: the decomposed layers must account for the real
    // estimate call (what is left is the model's own bookkeeping).
    let parts = graph_us + enumerate_us + profile_us + base_us + join_us;
    let rem_estimate = (estimate_us - parts) / estimate_us;
    // Reconciliation 2: registry lookup + fingerprint + cache probes +
    // estimate and inserts (on a miss) must account for the service
    // worker's own estimate time over the same queries.
    let (svc_sum, path_sum) = (
        pass.worker_ns as f64 / 1e3,
        pass.service_path_ns as f64 / 1e3,
    );
    let rem_service = (svc_sum - path_sum) / svc_sum;
    report.put(
        "trace.unattributed_estimate",
        rem_estimate,
        "ratio",
        pass.queries as usize,
    );
    report.put(
        "trace.unattributed_service",
        rem_service,
        "ratio",
        pass.queries as usize,
    );
    println!(
        "reconciliation (tolerance ±{:.0}%): core.estimate {estimate_us:.2} us = graph {graph_us:.2} \
         + enumerate {enumerate_us:.2} + profile {profile_us:.2} + base factors {base_us:.2} \
         + join {join_us:.2} + unattributed {:.1}%",
        RECONCILE_TOLERANCE * 100.0,
        rem_estimate * 100.0
    );
    println!(
        "reconciliation: service.estimate {:.2} us/query = registry + fingerprint + probes + estimate-on-miss \
         {:.2} us/query + unattributed {:.1}% ({} misses of {} queries)",
        svc_sum / pass.queries.max(1) as f64,
        path_sum / pass.queries.max(1) as f64,
        rem_service * 100.0,
        pass.misses,
        pass.queries
    );
    println!(
        "tracing overhead: plan p50 {plain_p50:.1} us untraced, {traced_p50:.1} us traced \
         (median of 3 alternating windows each)"
    );
    for (what, rem) in [
        ("core.estimate", rem_estimate),
        ("service.estimate", rem_service),
    ] {
        if rem.is_nan() || rem.abs() > RECONCILE_TOLERANCE {
            report.faults.push(format!(
                "{what}: {:.1}% unattributed exceeds the ±{:.0}% tolerance",
                rem * 100.0,
                RECONCILE_TOLERANCE * 100.0
            ));
        }
    }
    if pass.decomposition_mismatches > 0 {
        report.faults.push(format!(
            "{} queries: the decomposed layers disagree with estimate_subplans_with",
            pass.decomposition_mismatches
        ));
    }

    verify(
        &mut report,
        &oracle,
        &stream,
        &[
            &serving.probes,
            &warm,
            &plain,
            &traced_open,
            &inproc,
            &sequential,
            &updates.probes,
        ],
    );
    let span_file = dir.join("spans.jsonl");
    trace::write_jsonl(&span_file, &spans).expect("write spans");
    println!("spans: {} written to {}", spans.len(), span_file.display());
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fj-perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{:<32} {:>16} {:<6} samples", "metric", "value", "unit");
    for m in &report.metrics {
        println!(
            "{:<32} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &report.faults {
        println!("FAULT: {f}");
    }
    println!("{}", report.json());
    if !report.faults.is_empty() {
        std::process::exit(1);
    }
}
