//! The six workloads. Each generates its inputs from the seed, brings the
//! program to its ready state (timed as set-up, several times over),
//! computes a reference result with an uncached single-thread run, then
//! serves a closed loop for the requested window and checks every result
//! against the reference. With `trace` set it goes on to the layer replay.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use autofeat::core::baselines::run_base;
use autofeat::core::{
    materialize_path, train_top_k, AutoFeat, AutoFeatConfig, DiscoveryRequest, DiscoveryResult,
    DiscoveryService, SearchContext,
};
use autofeat::data::cache::CacheStats;
use autofeat::data::csv::read_csv_str;
use autofeat::data::encode::to_matrix;
use autofeat::data::sample::train_test_split;
use autofeat::data::Table;
use autofeat::discovery::{ColumnProfile, SchemaMatcher};
use autofeat::graph::{enumerate_paths, DrgMaintainer};
use autofeat::ml::{accuracy, ModelKind};
use autofeat::obs::{self, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib::Calibration;
use crate::gen::{self, Kfk, BASE, LABEL};
use crate::layers::{replay_discover, trace_ms, Recorder, DISCOVER_ROOT};
use crate::{median, percentile, Opts, RunOutput, WorkloadDef};

/// Set-ups per run: at least the first number, and more — up to the second —
/// while they have not yet taken a second together. `setup_s` is their median.
const SETUPS: (usize, usize) = (3, 9);
/// The closed loop stops for calibration this often: long enough that the
/// kernel takes a twentieth of the window and that the clients of a round
/// overlap for nearly all of it, short against the seconds-long stretches
/// over which the box changes speed.
const ROUND_SECONDS: f64 = 0.25;
/// Kernel runs per calibration, at least; a round longer than 300 ms gets
/// one per 100 ms.
const KERNEL_RUNS: usize = 3;
/// Smoke runs divide every row count by this.
const SMOKE_DIVISOR: usize = 16;
const MODELS: [ModelKind; 1] = [ModelKind::LightGbm];
/// Tables removed and re-added in rotation by `lake_mutating`.
const VICTIMS: usize = 8;

/// What one run accumulates.
struct Run<'a> {
    def: &'a WorkloadDef,
    opts: &'a Opts,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    checks_ok: bool,
    notes: Vec<String>,
    rec: Recorder,
    calibration: Calibration,
}

/// One timed op: what the clock said, and how much slower than its
/// reference speed the box was running around it.
struct Sample {
    raw_ms: f64,
    slowdown: f64,
}

impl Sample {
    /// The op's time with the box's slow-down divided out.
    fn ms(&self) -> f64 {
        self.raw_ms / self.slowdown
    }
}

/// One closed-loop window.
struct Window {
    /// Every client's ops.
    samples: Vec<Sample>,
    /// Wall time the clients spent serving: the rounds' lengths summed, the
    /// calibration between them left out.
    serving_s: f64,
    /// The same with each round's length divided by its slow-down.
    corrected_s: f64,
    /// Process CPU spent over the window, the calibration kernel's taken out.
    cpu_s: f64,
    failed: u64,
}

impl Window {
    fn ops(&self) -> usize {
        self.samples.len()
    }

    fn ms(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::ms).collect()
    }

    fn slowdown_p50(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.slowdown).collect::<Vec<_>>())
    }
}

/// Process CPU time (user + system) so far. `/proc/self/stat` counts in
/// USER_HZ ticks, which Linux fixes at 100 for every ABI.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one client of the closed loop saw. Only the leader calibrates.
#[derive(Default)]
struct ClientLog {
    /// Per round: each op's time as the clock read it, and the round's length.
    rounds: Vec<(Vec<f64>, f64)>,
    failed: u64,
    /// The box's slow-down at every round boundary, one more than rounds.
    slowdowns: Vec<f64>,
    calibrating_s: f64,
}

/// `clients` threads each call `op(i)` back to back, in rounds of
/// [`ROUND_SECONDS`] (at least one op each), until `seconds` have passed
/// since the window opened. Between rounds every client waits at a barrier
/// while the leader runs the calibration kernel, so the kernel times the box
/// and never the program's own contention; all ops of a round share the mean
/// of the slow-downs measured on both sides of it.
fn closed_loop(
    clients: usize,
    seconds: f64,
    calibration: &mut Calibration,
    op: impl Fn(usize) -> bool + Sync,
) -> Window {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let barrier = Barrier::new(clients);
    let done = AtomicBool::new(false);
    let round_s = ROUND_SECONDS.min(seconds);
    let lanes = calibration.lanes() as f64;
    let client = |mut calibration: Option<&mut Calibration>| {
        let mut log = ClientLog::default();
        let mut n = 0;
        loop {
            if let Some(calibration) = &mut calibration {
                let t = Instant::now();
                let last_round_ms = log.rounds.last().map_or(0.0, |r| r.1 * 1e3);
                let runs = ((last_round_ms / 100.0) as usize).max(KERNEL_RUNS);
                log.slowdowns.push(calibration.slowdown(runs));
                log.calibrating_s += t.elapsed().as_secs_f64();
                if !log.rounds.is_empty() && t0.elapsed().as_secs_f64() >= seconds {
                    done.store(true, Ordering::SeqCst);
                }
            }
            barrier.wait();
            if done.load(Ordering::SeqCst) {
                return log;
            }
            let round = Instant::now();
            let mut ops_ms = Vec::new();
            loop {
                let t = Instant::now();
                // An op that panics is a failed op, not a client the others
                // wait for at the barrier for ever.
                let ok = catch_unwind(AssertUnwindSafe(|| op(n))).unwrap_or(false);
                log.failed += u64::from(!ok);
                ops_ms.push(ms_since(t));
                n += 1;
                if round.elapsed().as_secs_f64() >= round_s {
                    break;
                }
            }
            log.rounds.push((ops_ms, round.elapsed().as_secs_f64()));
            barrier.wait();
        }
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let others: Vec<_> = (1..clients).map(|_| s.spawn(|| client(None))).collect();
        let mut logs = vec![client(Some(calibration))];
        logs.extend(others.into_iter().map(|h| h.join().expect("client thread")));
        logs
    });
    // The kernel keeps every lane busy, so its CPU time is lanes x wall time.
    // The process clock counts in 10 ms ticks: a window of a few
    // milliseconds (the self-test's) reads as one tick at least.
    let cpu_s = cpu_seconds() - cpu0 - logs[0].calibrating_s * lanes;
    let mut w = Window {
        samples: Vec::new(),
        serving_s: 0.0,
        corrected_s: 0.0,
        cpu_s: cpu_s.max(0.01),
        failed: logs.iter().map(|l| l.failed).sum(),
    };
    for (r, sides) in logs[0].slowdowns.windows(2).enumerate() {
        let slowdown = (sides[0] + sides[1]) / 2.0;
        // A round lasts until its last client is through.
        let wall_s = logs.iter().map(|l| l.rounds[r].1).fold(0.0, f64::max);
        w.serving_s += wall_s;
        w.corrected_s += wall_s / slowdown;
        for raw_ms in logs.iter().flat_map(|l| &l.rounds[r].0) {
            w.samples.push(Sample {
                raw_ms: *raw_ms,
                slowdown,
            });
        }
    }
    w
}

/// Everything a caller can observe of a result except timings and cache
/// attribution, compared to the bit. A truncated result never matches.
fn same_result(want: &DiscoveryResult, got: &DiscoveryResult) -> bool {
    !got.truncated
        && want.ranked.len() == got.ranked.len()
        && want.ranked.iter().zip(&got.ranked).all(|(a, b)| {
            a.path == b.path && a.score.to_bits() == b.score.to_bits() && a.features == b.features
        })
        && want.selected_features == got.selected_features
        && want.n_joins_evaluated == got.n_joins_evaluated
        && want.n_pruned_unjoinable == got.n_pruned_unjoinable
        && want.n_pruned_quality == got.n_pruned_quality
        && want.n_pruned_similarity == got.n_pruned_similarity
        && want.n_pruned_budget == got.n_pruned_budget
}

impl<'a> Run<'a> {
    fn new(def: &'a WorkloadDef, opts: &'a Opts) -> Self {
        Run {
            def,
            opts,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            checks_ok: true,
            notes: Vec::new(),
            rec: Recorder::default(),
            calibration: Calibration::new(def.speed_share, def.clients * def.threads),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn rows(&self, full: usize) -> usize {
        if self.opts.smoke {
            full / SMOKE_DIVISOR
        } else {
            full
        }
    }

    fn datagen<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.set("bench.datagen.s", t.elapsed().as_secs_f64());
        out
    }

    /// Run the set-up several times, each from the generated inputs and
    /// with the previous ready state already dropped, and keep the last.
    fn setup<T>(&mut self, f: impl Fn() -> T) -> T {
        let (mut times, mut raw) = (Vec::new(), Vec::new());
        let mut state = None;
        let enough = |raw: &[f64]| {
            self.opts.smoke || raw.len() >= SETUPS.1 || raw.iter().sum::<f64>() >= 1.0
        };
        while raw.len() < SETUPS.0 || !enough(&raw) {
            drop(state.take());
            let t = Instant::now();
            state = Some(f());
            let secs = t.elapsed().as_secs_f64();
            raw.push(secs);
            times.push(secs / self.calibration.slowdown(9));
        }
        self.set("setup_s", median(&times));
        self.set("bench.raw.setup_s", median(&raw));
        state.expect("at least one set-up ran")
    }

    /// One call timed like an op of the window, for the traced pass.
    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let t = Instant::now();
        let out = f();
        let raw_ms = ms_since(t);
        (
            out,
            Sample {
                raw_ms,
                slowdown: self.calibration.slowdown(3),
            },
        )
    }

    /// Close the recorder's current op at the box's present speed.
    fn end_op(&mut self) {
        let slowdown = self.calibration.slowdown(3);
        self.rec.end_op(slowdown);
    }

    /// A check outside the timed ops (warm-up results, replay identity,
    /// accuracy floor); a miss makes the run incorrect.
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.checks_ok = false;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// The reference: an uncached single-thread run over the same context.
    fn reference(&self, ctx: &SearchContext, cfg: &AutoFeatConfig) -> DiscoveryResult {
        let mut r = AutoFeat::new(cfg.clone().with_cache(false).with_threads(1))
            .discover(ctx)
            .expect("reference run");
        assert!(
            !r.truncated && !r.ranked.is_empty(),
            "reference must rank paths untruncated"
        );
        if self.opts.corrupt_reference {
            r.ranked[0].score += 1.0;
        }
        r
    }

    /// The workload's configuration: the paper's, on its thread count.
    fn paper(&self) -> AutoFeatConfig {
        AutoFeatConfig::paper().with_threads(self.def.threads)
    }

    fn window(&mut self, op: impl Fn(usize) -> bool + Sync) -> Window {
        let w = closed_loop(
            self.def.clients,
            self.opts.seconds,
            &mut self.calibration,
            op,
        );
        self.attempted += w.ops() as u64;
        self.failed += w.failed;
        let op_p50_ms = median(&w.ms());
        self.set("op_p50_ms", op_p50_ms);
        // Completed ops over the time spent serving them, at reference speed.
        let op_s = w.corrected_s / w.ops() as f64;
        self.set("ops_per_s", 1.0 / op_s);
        // CPU seconds per second of serving, times the serving time per op.
        self.set("cpu_ms_per_op", w.cpu_s / w.serving_s * op_s * 1e3);
        let raw_p50_ms = median(&w.samples.iter().map(|s| s.raw_ms).collect::<Vec<_>>());
        let slowdown_p50 = w.slowdown_p50();
        self.set("bench.raw.op_p50_ms", raw_p50_ms);
        self.set("bench.raw.slowdown_p50", slowdown_p50);
        self.notes.push(format!(
            "the workload ran at {slowdown_p50:.2}x its reference time over the window; op_p50 as the clock read it: {raw_p50_ms:.3} ms"
        ));
        w
    }

    /// What the cache's counters gained between two snapshots, per op.
    /// (Subtracted here and not with `CacheStats::since`, which the ROADMAP
    /// lists for deletion.)
    fn cache(&mut self, before: &CacheStats, after: &CacheStats, ops: usize) {
        let n = ops as f64;
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        self.set("data.cache.hits", hits as f64 / n);
        self.set("data.cache.misses", misses as f64 / n);
        let probes = (hits + misses) as f64;
        self.set(
            "data.cache.hit_ratio",
            if probes > 0.0 {
                hits as f64 / probes
            } else {
                0.0
            },
        );
        self.set(
            "data.cache.evictions",
            (after.evictions - before.evictions) as f64 / n,
        );
        self.set(
            "data.cache.rejections",
            (after.rejections - before.rejections) as f64 / n,
        );
        self.set(
            "data.cache.invalidations",
            (after.invalidations - before.invalidations) as f64 / n,
        );
        self.set(
            "data.cache.build_s",
            (after.build_time - before.build_time).as_secs_f64() / n,
        );
        self.set(
            "data.cache.resident_mb",
            after.resident_bytes as f64 / (1024.0 * 1024.0),
        );
    }

    fn finish(mut self) -> RunOutput {
        self.set("peak_rss_mb", peak_rss_mb());
        let trace_json = self.opts.trace.then(|| self.rec.to_json(self.def.name));
        RunOutput {
            correct: self.failed == 0 && self.checks_ok,
            attempted: self.attempted,
            failed: self.failed,
            values: self.values,
            notes: self.notes,
            trace_json,
        }
    }
}

fn kfk_context(tables: &[Table], kfk: &[Kfk], label: &str) -> SearchContext {
    SearchContext::from_kfk(tables.to_vec(), kfk, BASE, label).expect("KFK context builds")
}

fn lake_context(tables: Vec<Table>, base: &str, label: &str) -> SearchContext {
    SearchContext::from_discovery(tables, &SchemaMatcher::paper_default(), base, label)
        .expect("lake context builds")
}

fn warmed_service(ctx: SearchContext, cfg: &AutoFeatConfig) -> DiscoveryService {
    let service = DiscoveryService::new(ctx, cfg.clone());
    for _ in 0..2 {
        service
            .submit(&DiscoveryRequest::new())
            .expect("warm-up request");
    }
    service
}

pub fn run(def: &WorkloadDef, opts: &Opts) -> RunOutput {
    let mut run = Run::new(def, opts);
    match def.name {
        "star_warm" => star_warm(&mut run),
        "star_budgeted" => star_budgeted(&mut run),
        "wide_fullscan" => wide_fullscan(&mut run),
        "lake_cold_start" => lake_cold_start(&mut run),
        "lake_mutating" => lake_mutating(&mut run),
        "snowflake_augment" => snowflake_augment(&mut run),
        other => unreachable!("`{other}` is in WORKLOADS but has no implementation"),
    }
    run.finish()
}

/// The closed loop shared by the three KFK serving workloads, then their
/// traced pass.
fn serve(run: &mut Run, service: &DiscoveryService, cfg: &AutoFeatConfig, lake: &gen::KfkLake) {
    let reference = run.reference(service.context(), cfg);
    run.set("ranked_paths", reference.ranked.len() as f64);
    let request = DiscoveryRequest::new().with_config(cfg.clone());
    let warm = service.submit(&request).expect("request serves");
    run.check(
        same_result(&reference, &warm),
        "warm request equals the reference",
    );

    let cache = service.context().lake_cache();
    let before = cache.stats();
    let w = run.window(|_| {
        service
            .submit(&request)
            .is_ok_and(|r| same_result(&reference, &r))
    });
    let after = cache.stats();
    run.cache(&before, &after, w.ops());
    run.set("core.service.request_p50_ms", median(&w.ms()));
    run.set("core.service.request_p95_ms", percentile(&w.ms(), 0.95));

    if run.opts.trace {
        let ctx = service.context();
        let replays = replays_for(median(&w.ms()));
        discover_layers(run, ctx, cfg, &reference, replays, Some(service));
        run.rec.time("core.context.build", || {
            kfk_context(&lake.tables, &lake.kfk, LABEL)
        });
        attach_layers(run, &lake.tables);
        finish_layers(run, replays);
    }
}

fn star_warm(run: &mut Run) {
    let (seed, rows) = (run.opts.seed, run.rows(4_000));
    let lake = run.datagen(|| gen::star(seed, rows, 64, 4, 2));
    let cfg = run.paper();
    let service = run.setup(|| warmed_service(kfk_context(&lake.tables, &lake.kfk, LABEL), &cfg));
    serve(run, &service, &cfg, &lake);
}

fn star_budgeted(run: &mut Run) {
    let (seed, rows) = (run.opts.seed, run.rows(8_000));
    let lake = run.datagen(|| gen::star(seed, rows, 16, 32, 1));
    // The budget is a quarter of what the cache holds when nothing limits
    // it, measured in every set-up and applied by every later request.
    let unbounded = run.paper();
    let ready = || {
        let service = warmed_service(kfk_context(&lake.tables, &lake.kfk, LABEL), &unbounded);
        let working_set = service.context().lake_cache().stats().resident_bytes;
        let cfg = unbounded.clone().with_cache_budget_bytes(working_set / 4);
        for _ in 0..2 {
            service
                .submit(&DiscoveryRequest::new().with_config(cfg.clone()))
                .expect("warm-up request");
        }
        (service, cfg)
    };
    let (service, cfg) = run.setup(ready);
    serve(run, &service, &cfg, &lake);
}

fn wide_fullscan(run: &mut Run) {
    let (seed, rows) = (run.opts.seed, run.rows(16_000));
    let lake = run.datagen(|| gen::two_level(seed, rows, 12, 2, 8));
    let mut cfg = run.paper();
    cfg.sample_rows = None;
    let service = run.setup(|| warmed_service(kfk_context(&lake.tables, &lake.kfk, LABEL), &cfg));
    serve(run, &service, &cfg, &lake);
}

/// CSV text → tables → discovered context.
fn ingest(csv: &[(String, String)], base: &str, label: &str) -> SearchContext {
    let tables: Vec<Table> = csv
        .iter()
        .map(|(name, text)| read_csv_str(name, text).expect("generated CSV parses"))
        .collect();
    lake_context(tables, base, label)
}

/// CSV text → first ranked result.
fn cold_start(
    csv: &[(String, String)],
    base: &str,
    label: &str,
    cfg: &AutoFeatConfig,
) -> (SearchContext, DiscoveryResult) {
    let ctx = ingest(csv, base, label);
    let result = AutoFeat::new(cfg.clone())
        .discover(&ctx)
        .expect("first request");
    (ctx, result)
}

fn lake_cold_start(run: &mut Run) {
    let (seed, rows) = (run.opts.seed, run.rows(4_000));
    let (lake, csv) = run.datagen(|| {
        let lake = gen::lake(seed, rows);
        let csv = gen::to_csv(&lake);
        (lake, csv)
    });
    let (base, label) = (lake.base_name.as_str(), lake.label.as_str());
    let cfg = run.paper();
    // Set-up here is a cold start that is thrown away.
    let (ctx, first) = run.setup(|| cold_start(&csv, base, label, &cfg));
    let reference = run.reference(&ctx, &cfg);
    run.set("ranked_paths", reference.ranked.len() as f64);
    run.check(
        same_result(&reference, &first),
        "discarded cold start equals the reference",
    );

    // Every op has its own context and cache, so sum what each one reports.
    let cache_sum = Mutex::new(CacheStats::default());
    let w = run.window(|_| {
        let (ctx, result) = cold_start(&csv, base, label, &cfg);
        let stats = ctx.lake_cache().stats();
        let mut sum = cache_sum.lock().expect("cache sum lock");
        sum.hits += stats.hits;
        sum.misses += stats.misses;
        sum.build_time += stats.build_time;
        sum.resident_bytes = stats.resident_bytes;
        same_result(&reference, &result)
    });
    let sum = cache_sum.into_inner().expect("cache sum lock");
    run.cache(&CacheStats::default(), &sum, w.ops());

    if run.opts.trace {
        cold_start_layers(run, &lake.tables, &csv, base, label, &cfg, &reference);
    }
}

fn lake_mutating(run: &mut Run) {
    let (seed, rows) = (run.opts.seed, run.rows(4_000));
    let lake = run.datagen(|| gen::lake(seed, rows));
    let (base, label) = (lake.base_name.as_str(), lake.label.as_str());
    let cfg = run.paper();
    let service =
        run.setup(|| warmed_service(lake_context(lake.tables.clone(), base, label), &cfg));
    let victims: Vec<&Table> = lake
        .tables
        .iter()
        .filter(|t| t.name() != base)
        .take(VICTIMS)
        .collect();

    // While a victim is out, results must equal a lake built without it.
    let full = run.reference(service.context(), &cfg);
    let without: Vec<DiscoveryResult> = victims
        .iter()
        .map(|v| {
            let rest = lake
                .tables
                .iter()
                .filter(|t| t.name() != v.name())
                .cloned()
                .collect();
            run.reference(&lake_context(rest, base, label), &cfg)
        })
        .collect();
    run.set("ranked_paths", full.ranked.len() as f64);

    #[derive(Default)]
    struct Parts {
        request_ms: Vec<f64>,
        add_ms: Vec<f64>,
        remove_ms: Vec<f64>,
    }
    let parts = Mutex::new(Parts::default());
    let request = DiscoveryRequest::new();
    let requests = |want: &DiscoveryResult| {
        (0..2).all(|_| {
            let t = Instant::now();
            let got = service.submit(&request);
            parts
                .lock()
                .expect("parts lock")
                .request_ms
                .push(ms_since(t));
            got.is_ok_and(|r| same_result(want, &r))
        })
    };
    let cache = service.context().lake_cache();
    let before = cache.stats();
    // One op is one cycle of the script: remove, two reads, add back, two reads.
    let w = run.window(|i| {
        let v = i % victims.len();
        let t = Instant::now();
        let removed = service.remove_table(victims[v].name()).is_ok();
        parts
            .lock()
            .expect("parts lock")
            .remove_ms
            .push(ms_since(t));
        let while_out = requests(&without[v]);
        let t = Instant::now();
        let added = service.add_table(victims[v].clone()).is_ok();
        parts.lock().expect("parts lock").add_ms.push(ms_since(t));
        removed && while_out && added && requests(&full)
    });
    let after = cache.stats();
    run.cache(&before, &after, w.ops());
    // The parts of a cycle share the cycle's calibration.
    let parts = parts.into_inner().expect("parts lock");
    let slowdown = w.slowdown_p50();
    run.set(
        "core.service.request_p50_ms",
        median(&parts.request_ms) / slowdown,
    );
    run.set(
        "core.service.request_p95_ms",
        percentile(&parts.request_ms, 0.95) / slowdown,
    );
    run.set(
        "core.service.add_table_p50_ms",
        median(&parts.add_ms) / slowdown,
    );
    run.set(
        "core.service.remove_table_p50_ms",
        median(&parts.remove_ms) / slowdown,
    );

    if run.opts.trace {
        let ctx = service.context().latest();
        let replays = replays_for(median(&parts.request_ms));
        discover_layers(run, &ctx, &cfg, &full, replays, Some(&service));
        run.rec.time("core.context.build", || {
            lake_context(lake.tables.clone(), base, label)
        });
        attach_layers(run, &lake.tables);
        drg_mutation_layers(run, &lake.tables, base, label, &victims);
        finish_layers(run, replays);
    }
}

fn mean_accuracy(ctx: &SearchContext, discovery: &DiscoveryResult, cfg: &AutoFeatConfig) -> f64 {
    train_top_k(ctx, discovery, &MODELS, cfg)
        .expect("training runs")
        .result
        .mean_accuracy()
}

fn snowflake_augment(run: &mut Run) {
    let (seed, rows) = (run.opts.seed, run.rows(3_000));
    let (sf, tables, kfk) = run.datagen(|| {
        let sf = gen::snowflake(seed, rows);
        let tables: Vec<Table> = sf.all_tables().into_iter().cloned().collect();
        let kfk = gen::kfk_of(&sf);
        (sf, tables, kfk)
    });
    let cfg = run.paper();
    let ctx = run.setup(|| {
        let ctx = kfk_context(&tables, &kfk, &sf.label);
        AutoFeat::new(cfg.clone())
            .discover(&ctx)
            .expect("warm-up discovery");
        ctx
    });
    let reference = run.reference(&ctx, &cfg);
    run.set("ranked_paths", reference.ranked.len() as f64);
    let want_accuracy = mean_accuracy(&ctx, &reference, &cfg);
    let base_accuracy = run_base(&ctx, &MODELS, cfg.seed)
        .expect("BASE runs")
        .mean_accuracy();
    run.set("ml.accuracy", want_accuracy);
    run.set("ml.base_accuracy", base_accuracy);
    run.check(
        want_accuracy >= base_accuracy,
        "augmented accuracy is at least BASE accuracy",
    );

    let cache = ctx.lake_cache();
    let before = cache.stats();
    let w = run.window(|_| {
        let Ok(found) = AutoFeat::new(cfg.clone()).discover(&ctx) else {
            return false;
        };
        same_result(&reference, &found)
            && mean_accuracy(&ctx, &found, &cfg).to_bits() == want_accuracy.to_bits()
    });
    let after = cache.stats();
    run.cache(&before, &after, w.ops());

    if run.opts.trace {
        discover_layers(run, &ctx, &cfg, &reference, 1, None);
        let trained = run.rec.time("core.train", || {
            train_top_k(&ctx, &reference, &MODELS, &cfg)
        });
        run.end_op();
        run.check(
            trained.is_ok_and(|t| t.result.mean_accuracy().to_bits() == want_accuracy.to_bits()),
            "replayed training repeats the accuracy",
        );
        let tracer = Tracer::enabled();
        let (_, took) = run
            .timed(|| obs::with_tracer(&tracer, || train_top_k(&ctx, &reference, &MODELS, &cfg)));
        crosscheck(
            run,
            &tracer.snapshot(),
            took.slowdown,
            &[("train", "core.train")],
            1,
        );

        let mut top = None;
        for ranked in reference.top_k(cfg.top_k) {
            let table = run.rec.time("core.executor.materialize", || {
                materialize_path(&ctx, ctx.base_table(), &ranked.path, cfg.seed)
                    .expect("path materializes")
            });
            top.get_or_insert((table, ranked));
        }
        if let Some((table, ranked)) = top {
            fit_predict_layer(
                run,
                &ctx,
                &table,
                &reference,
                ranked.path.tables(),
                cfg.seed,
            );
        }
        run.end_op();
        run.rec.time("core.context.build", || {
            kfk_context(&tables, &kfk, &sf.label)
        });
        attach_layers(run, &tables);
        finish_layers(run, 1);
    }
}

// ---- The traced pass ------------------------------------------------------

/// Replays per traced pass: up to five short requests, one long one. Each
/// replay comes with three timed runs of the program, so this bounds the
/// pass at a few seconds.
fn replays_for(op_ms: f64) -> usize {
    ((600.0 / op_ms.max(1.0)) as usize).clamp(1, 5)
}

/// The program spans that mean what a replay span means.
const DISCOVER_PAIRS: [(&str, &str); 5] = [
    ("join", "data.join.probe_gather"),
    ("index_build", "data.join.index_build"),
    ("relevance", "metrics.relevance.score"),
    ("discretize", "metrics.discretize"),
    ("redundancy", "metrics.redundancy.score"),
];

/// Time `discover` directly, `submit` and a program-traced request side by
/// side, then replay the request layer by layer and cross-check the replay
/// against the program's own trace. All single-thread, so that a layer's
/// time and the request's time are the same kind of number.
fn discover_layers(
    run: &mut Run,
    ctx: &SearchContext,
    cfg: &AutoFeatConfig,
    reference: &DiscoveryResult,
    replays: usize,
    service: Option<&DiscoveryService>,
) {
    let serial = cfg.clone().with_threads(1);
    let (mut direct, mut submitted, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut trace = None;
    // Interleaved, so that a change in the box's speed reaches all four.
    for _ in 0..replays {
        let (found, took) = run.timed(|| {
            AutoFeat::new(serial.clone())
                .discover(ctx)
                .expect("direct discover")
        });
        direct.push(took.ms());
        run.check(
            same_result(reference, &found),
            "direct discover equals the reference",
        );
        if let Some(service) = service {
            let request = DiscoveryRequest::new().with_config(serial.clone());
            submitted.push(
                run.timed(|| service.submit(&request).expect("submit"))
                    .1
                    .ms(),
            );
        }
        let traced_cfg = serial.clone().with_trace(true);
        let (found, took) = run.timed(|| {
            AutoFeat::new(traced_cfg)
                .discover(ctx)
                .expect("traced discover")
        });
        traced.push(took.ms());
        trace = found.trace.map(|t| (t, took.slowdown));
        let ok = replay_discover(&mut run.rec, ctx, &serial, reference);
        run.end_op();
        run.check(ok, "layer replay ranks exactly what the reference ranked");
    }
    let discover_ms = median(&direct);
    run.set("core.discover.ms", discover_ms);
    run.set(
        "obs.trace.overhead_share",
        (median(&traced) - discover_ms) / discover_ms,
    );
    if let Some(service) = service {
        run.set("core.service.overhead_ms", median(&submitted) - discover_ms);
        run.rec
            .time("obs.metrics.scrape", || service.metrics_text());
    }
    if let Some((trace, slowdown)) = trace {
        crosscheck(run, &trace, slowdown, &DISCOVER_PAIRS, replays);
    }
    graph_layers(run, ctx, cfg, reference);
}

/// Counts of the request and of the graph it walked, and path enumeration.
fn graph_layers(
    run: &mut Run,
    ctx: &SearchContext,
    cfg: &AutoFeatConfig,
    reference: &DiscoveryResult,
) {
    run.set(
        "core.discover.joins_evaluated",
        reference.n_joins_evaluated as f64,
    );
    run.set(
        "core.discover.pruned_quality",
        reference.n_pruned_quality as f64,
    );
    run.set(
        "core.discover.pruned_similarity",
        reference.n_pruned_similarity as f64,
    );
    run.set(
        "core.discover.features_selected",
        reference.selected_features.len() as f64,
    );
    run.set("graph.drg.edges", ctx.drg().n_edges() as f64);
    if let Some(base) = ctx.drg().node(ctx.base_name()) {
        let paths = run.rec.time("graph.traversal.enumerate", || {
            enumerate_paths(ctx.drg(), base, cfg.max_path_length, true)
        });
        run.set("graph.traversal.paths", paths.len() as f64);
    }
    run.end_op();
}

/// Where a program span means what a replay span means, print replay ÷
/// trace; outside 0.8–1.25 is worth a look but not a failure. `slowdown` is
/// the box's when the program recorded `trace`.
fn crosscheck(
    run: &mut Run,
    trace: &autofeat::obs::RunTrace,
    slowdown: f64,
    pairs: &[(&str, &'static str)],
    replays: usize,
) {
    let replay = run.rec.self_ms();
    for &(theirs, ours) in pairs {
        let trace_ms = trace_ms(trace, theirs) / slowdown;
        let replay_ms = replay.get(ours).copied().unwrap_or(0.0) / replays as f64;
        if trace_ms < 0.05 && replay_ms < 0.05 {
            continue;
        }
        let ratio = replay_ms / trace_ms;
        let flag = if (0.8..=1.25).contains(&ratio) {
            ""
        } else {
            "  WARN outside 0.8-1.25"
        };
        run.notes.push(format!(
            "crosscheck {ours}: replay {replay_ms:.3} ms / program span `{theirs}` {trace_ms:.3} ms = {ratio:.2}{flag}"
        ));
    }
}

fn attach_layers(run: &mut Run, tables: &[Table]) {
    run.rec.time("data.keymeta.attach", || {
        for t in tables {
            std::hint::black_box(t.clone().with_key_dicts());
        }
    });
    run.end_op();
}

/// `DrgMaintainer::{remove_table, add_table}` on a maintainer of the
/// benchmark's own, once per victim.
fn drg_mutation_layers(
    run: &mut Run,
    tables: &[Table],
    base: &str,
    label: &str,
    victims: &[&Table],
) {
    let hidden: Vec<Table> = tables
        .iter()
        .map(|t| {
            if t.name() == base {
                t.drop_columns(&[label])
            } else {
                t.clone()
            }
        })
        .collect();
    let refs: Vec<&Table> = hidden.iter().collect();
    let mut maintainer = DrgMaintainer::build(&refs, &SchemaMatcher::paper_default());
    for v in victims {
        run.rec.time("graph.drg.remove_table", || {
            maintainer.remove_table(v.name())
        });
        run.rec
            .time("graph.drg.add_table", || maintainer.add_table(v));
    }
    run.end_op();
    run.rec.count("graph.drg.mutations", victims.len() as f64);
}

/// One cold start replayed layer by layer: ingest, profile, match,
/// assemble, then the first request.
fn cold_start_layers(
    run: &mut Run,
    generated: &[Table],
    csv: &[(String, String)],
    base: &str,
    label: &str,
    cfg: &AutoFeatConfig,
    reference: &DiscoveryResult,
) {
    let rec = &mut run.rec;
    let op = rec.enter("bench.replay.op");
    let mut tables = Vec::with_capacity(csv.len());
    for (name, text) in csv {
        tables.push(rec.time("data.csv.read", || {
            read_csv_str(name, text).expect("generated CSV parses")
        }));
        rec.count("data.csv.bytes", text.len() as f64);
    }
    let mut maintainer = DrgMaintainer::new(SchemaMatcher::paper_default());
    let mut profiled = Vec::with_capacity(tables.len());
    for t in &tables {
        let seen = if t.name() == base {
            t.drop_columns(&[label])
        } else {
            t.clone()
        };
        let profiles = rec.time("discovery.profile.build", || {
            ColumnProfile::build_all(&seen)
        });
        rec.count("discovery.profile.columns", profiles.len() as f64);
        profiled.push(profiles);
    }
    for (t, profiles) in tables.iter().zip(profiled) {
        rec.time("graph.drg.match", || {
            maintainer.add_profiles(t.name(), profiles)
        });
    }
    let drg = rec.time("graph.drg.assemble", || maintainer.assemble());
    let ctx = SearchContext::new(tables, drg, base, label).expect("replayed context builds");
    let ok = replay_discover(rec, &ctx, cfg, reference);
    rec.exit(op);
    run.end_op();
    run.check(ok, "layer replay ranks exactly what the reference ranked");

    // The program's side of the same op: once traced, once plain with its
    // first request timed on its own.
    let tracer = Tracer::enabled();
    let (_, traced) = run.timed(|| obs::with_tracer(&tracer, || cold_start(csv, base, label, cfg)));
    let (ctx, ingested) = run.timed(|| ingest(csv, base, label));
    let (_, first) = run.timed(|| {
        AutoFeat::new(cfg.clone())
            .discover(&ctx)
            .expect("first request")
    });
    let plain_ms = ingested.ms() + first.ms();
    run.set("core.discover.ms", first.ms());
    run.set(
        "obs.trace.overhead_share",
        (traced.ms() - plain_ms) / plain_ms,
    );
    let mut pairs = DISCOVER_PAIRS.to_vec();
    pairs.push(("drg_assemble", "graph.drg.assemble"));
    crosscheck(run, &tracer.snapshot(), traced.slowdown, &pairs, 1);
    graph_layers(run, &ctx, cfg, reference);

    run.rec.time("core.context.build", || {
        lake_context(generated.to_vec(), base, label)
    });
    attach_layers(run, generated);
    let victims: Vec<&Table> = generated
        .iter()
        .filter(|t| t.name() != base)
        .take(VICTIMS)
        .collect();
    drg_mutation_layers(run, generated, base, label, &victims);
    finish_layers(run, 1);
}

/// `ModelKind::build().fit/predict` on the materialized top-ranked path,
/// with the features and split `train_top_k` uses for it.
fn fit_predict_layer(
    run: &mut Run,
    ctx: &SearchContext,
    table: &Table,
    discovery: &DiscoveryResult,
    path_tables: Vec<&str>,
    seed: u64,
) {
    let base_features = ctx.base_features();
    let mut features: Vec<&str> = base_features.iter().map(String::as_str).collect();
    for f in &discovery.selected_features {
        if path_tables
            .iter()
            .any(|t| *t != ctx.base_name() && f.starts_with(&format!("{t}.")))
        {
            features.push(f);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let split = train_test_split(table, ctx.label(), 0.2, &mut rng).expect("split");
    let train = to_matrix(&split.train, &features, ctx.label()).expect("train matrix");
    let test = to_matrix(&split.test, &features, ctx.label()).expect("test matrix");
    run.rec.time("ml.fit_predict", || {
        let mut model = MODELS[0].build(seed);
        model.fit(&train).expect("model fits");
        std::hint::black_box(accuracy(&model.predict(&test), &test.labels))
    });
}

/// Recorder spans → per-layer metric values. Layers of the replayed op are
/// self times per op; the side measurements are totals of one pass over
/// their subject.
fn finish_layers(run: &mut Run, replays: usize) {
    const PER_OP: [(&str, &str); 15] = [
        ("data.csv.read", "data.csv.read_ms"),
        ("data.sample.stratified", "data.sample.stratified_ms"),
        ("data.join.index_build", "data.join.index_build_ms"),
        ("data.cache.lookup", "data.cache.lookup_ms"),
        ("data.join.probe_gather", "data.join.probe_gather_ms"),
        ("data.stats.completeness", "data.stats.completeness_ms"),
        ("data.encode.label_encode", "data.encode.label_encode_ms"),
        ("discovery.profile.build", "discovery.profile.build_ms"),
        ("graph.drg.match", "graph.drg.match_ms"),
        ("graph.drg.assemble", "graph.drg.assemble_ms"),
        ("metrics.relevance.score", "metrics.relevance.score_ms"),
        ("metrics.discretize", "metrics.discretize.ms"),
        ("metrics.redundancy.score", "metrics.redundancy.score_ms"),
        ("core.train", "core.train.ms"),
        ("bench.replay.self", "bench.replay.self_ms"),
    ];
    const ONCE: [(&str, &str); 6] = [
        ("data.keymeta.attach", "data.keymeta.attach_ms"),
        ("core.context.build", "core.context.build_ms"),
        ("graph.traversal.enumerate", "graph.traversal.enumerate_ms"),
        ("core.executor.materialize", "core.executor.materialize_ms"),
        ("ml.fit_predict", "ml.fit_predict_ms"),
        ("obs.metrics.scrape", "obs.metrics.scrape_ms"),
    ];
    let n = replays as f64;
    let mut self_ms = run.rec.self_ms();
    let discover_self_ms = self_ms.remove(DISCOVER_ROOT).unwrap_or(0.0);
    let op_self_ms = self_ms.remove("bench.replay.op").unwrap_or(0.0);
    self_ms.insert("bench.replay.self", discover_self_ms + op_self_ms);
    for (span, metric) in PER_OP {
        run.set(metric, self_ms.get(span).copied().unwrap_or(0.0) / n);
    }
    for (span, metric) in ONCE {
        run.set(metric, run.rec.total_ms(span));
    }
    let count = |run: &Run, name: &str| run.rec.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mutations = count(run, "graph.drg.mutations");
    run.set(
        "graph.drg.add_table_ms",
        ratio(run.rec.total_ms("graph.drg.add_table"), mutations),
    );
    run.set(
        "graph.drg.remove_table_ms",
        ratio(run.rec.total_ms("graph.drg.remove_table"), mutations),
    );

    let csv_s = run.rec.total_ms("data.csv.read") / 1e3;
    run.set(
        "data.csv.mb_per_s",
        ratio(count(run, "data.csv.bytes") / 1e6, csv_s),
    );
    run.set(
        "discovery.profile.columns",
        count(run, "discovery.profile.columns"),
    );

    let build_s = self_ms.get("data.join.index_build").copied().unwrap_or(0.0) / 1e3;
    run.set(
        "data.join.index_builds",
        count(run, "data.join.index_builds") / n,
    );
    run.set(
        "data.join.index_rows_per_s",
        ratio(count(run, "data.join.index_rows"), build_s),
    );
    run.set("data.join.left_rows", count(run, "data.join.left_rows") / n);
    run.set(
        "data.join.matched_share",
        ratio(
            count(run, "data.join.matched_rows"),
            count(run, "data.join.left_rows"),
        ),
    );
    run.set(
        "metrics.relevance.features_scored",
        count(run, "metrics.relevance.features_scored") / n,
    );
    run.set(
        "metrics.redundancy.kept_share",
        ratio(
            count(run, "metrics.redundancy.kept"),
            count(run, "metrics.redundancy.candidates"),
        ),
    );

    // Validity of the table: the replayed layers together should take about
    // as long as the program's own discover over the same hops.
    let replayed_ms = (run.rec.total_ms(DISCOVER_ROOT) - discover_self_ms) / n;
    let discover_ms = run.values.get("core.discover.ms").copied().unwrap_or(0.0);
    run.set("bench.replay.coverage", ratio(replayed_ms, discover_ms));
}
