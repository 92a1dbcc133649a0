//! Resilience probe: measures the request-lifecycle guarantees of DESIGN.md
//! §3h on a bench-scale lake and gates them with exit codes.
//!
//! Three drills on the same wide lake:
//!
//! * **cancel** — a canceller thread fires at 40% of the reference runtime;
//!   the run must return a valid (possibly empty) ranked partial, and the
//!   cancel latency — from `cancel()` to `discover` returning — must stay
//!   under 250ms, worst case over the `REPS` runs a cancel landed in (a run
//!   of a few milliseconds can finish first, so up to `MAX_TRIES` are drawn);
//! * **deadline** — budgets at ~25% and ~50% of the unbounded runtime must
//!   yield `Ok` with a `DeadlineExceeded` truncation (or a clean finish for
//!   generous budgets) and bounded overrun;
//! * **panic** — an armed per-table worker panic must be isolated as a path
//!   failure while every healthy sibling is still ranked, and healing the
//!   fault must restore the full unbounded result bit-for-bit.
//!
//! Emits `BENCH_resilience.json` (hand-rolled JSON — no serde in this
//! workspace) plus `TRACE_resilience_cancel.json`, the run trace of one
//! cancelled run, whose `resilience.cancel_latency_secs` distribution CI
//! greps against the same bound. Exit codes: 2 = cancel latency above
//! bound, no cancel could be landed, or the cancelled-run trace is missing
//! its latency counter; 3 = a deadline/cancel run errored or overran
//! grossly; 4 = panic escaped isolation or the healed run differs from
//! the reference.
//!
//! Usage: `resilience_probe [--threads N] [--out PATH]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use autofeat_core::{AutoFeat, AutoFeatConfig, DiscoveryResult, SearchContext, TruncationReason};
use autofeat_data::parallel::n_workers;
use autofeat_data::{faults, Column, Table};

/// A base table plus `n_sat` sibling satellites with duplicated join keys —
/// the same shape as `path_eval_throughput`, sized so the unbounded run is
/// long enough for a mid-run cancel to actually land mid-run.
fn wide_lake(n_rows: usize, n_sat: usize, dup: usize) -> SearchContext {
    let labels: Vec<i64> = (0..n_rows as i64).map(|i| (i * 7) % 2).collect();
    let base = Table::new(
        "base",
        vec![
            ("k", Column::from_ints((0..n_rows as i64).map(Some).collect::<Vec<_>>())),
            (
                "b0",
                Column::from_floats(
                    (0..n_rows).map(|i| Some(((i * 29) % 23) as f64)).collect::<Vec<_>>(),
                ),
            ),
            (
                "target",
                Column::from_ints(labels.iter().copied().map(Some).collect::<Vec<_>>()),
            ),
        ],
    )
    .expect("base builds");
    let mut tables = vec![base];
    let mut kfk: Vec<(String, String, String, String)> = Vec::new();
    for j in 0..n_sat {
        let name = format!("sat{j:03}");
        let m = n_rows * dup;
        let keys: Vec<Option<i64>> = (0..m as i64).map(|i| Some(i / dup as i64)).collect();
        let vals: Vec<Option<f64>> = (0..m)
            .map(|i| Some(((i * (13 + j) + j * 7) % 101) as f64))
            .collect();
        tables.push(
            Table::new(
                name.clone(),
                vec![("k", Column::from_ints(keys)), ("f", Column::from_floats(vals))],
            )
            .expect("satellite builds"),
        );
        kfk.push(("base".into(), "k".into(), name, "k".into()));
    }
    SearchContext::from_kfk(tables, &kfk, "base", "target").expect("context builds")
}

fn config(threads: usize) -> AutoFeatConfig {
    AutoFeatConfig::paper().with_seed(42).with_threads(threads)
}

fn results_identical(a: &DiscoveryResult, b: &DiscoveryResult) -> bool {
    a.ranked.len() == b.ranked.len()
        && a.ranked.iter().zip(&b.ranked).all(|(x, y)| {
            x.path == y.path
                && x.score.to_bits() == y.score.to_bits()
                && x.features == y.features
        })
        && a.truncation == b.truncation
        && a.selected_features == b.selected_features
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let requested = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(n_workers);
    let threads = requested.clamp(1, avail);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_resilience.json".to_string());

    const LATENCY_BOUND: Duration = Duration::from_millis(250);
    /// Cancels that must land mid-run, and the runs drawn to get them.
    const REPS: usize = 3;
    const MAX_TRIES: usize = 20;

    let (n_rows, n_sat, dup) = (2_000, 48, 6);
    eprintln!("building wide lake: {n_sat} satellites x {} rows (dup {dup})...", n_rows * dup);
    let ctx = wide_lake(n_rows, n_sat, dup);

    // ---- Reference: unbounded, unfaulted (also the warm-up). ----
    let reference = AutoFeat::new(config(threads)).discover(&ctx).expect("reference run");
    // Warm runs from here on. The drills aim at fractions of this time and
    // the run is milliseconds long, so take the quickest of a few: one slow
    // sample would put every cancel and deadline past the end of the run.
    let mut secs_unbounded = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let r = AutoFeat::new(config(threads)).discover(&ctx).expect("reference run");
        secs_unbounded = secs_unbounded.min(t.elapsed().as_secs_f64());
        assert!(results_identical(&reference, &r), "reference not repeatable");
    }
    eprintln!(
        "reference: {} path(s) ranked in {secs_unbounded:.3}s ({} joins)",
        reference.ranked.len(),
        reference.n_joins_evaluated
    );

    // ---- Drill 1: mid-run cancel, worst-case latency over REPS landed
    // cancels. The first run that actually gets cancelled leaves its run
    // trace at `trace_out`, so CI can grep `resilience.cancel_latency_secs`
    // straight off the emitted trace (tracing never perturbs results).
    let trace_out = "TRACE_resilience_cancel.json";
    let mut cancel_latency_worst = Duration::ZERO;
    let mut cancel_ranked_partial = 0usize;
    let mut cancel_all_ok = true;
    let mut cancels_landed = 0usize;
    let mut cancel_tries = 0usize;
    let mut cancel_trace_captured = false;
    // Fire at 40% of the reference runtime, however short that is: any
    // floor is the whole of a run that takes milliseconds.
    let fire_after = Duration::from_secs_f64(secs_unbounded * 0.4);
    while cancels_landed < REPS && cancel_tries < MAX_TRIES {
        let rep = cancel_tries;
        cancel_tries += 1;
        let ctl = Arc::clone(ctx.control());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(fire_after);
            ctl.cancel();
            Instant::now()
        });
        let mut cfg = config(threads);
        if !cancel_trace_captured {
            cfg = cfg.with_trace_path(trace_out);
        }
        let r = AutoFeat::new(cfg).discover(&ctx);
        let returned_at = Instant::now();
        let cancelled_at = canceller.join().expect("canceller thread");
        ctx.control().reset();
        match r {
            Ok(r) => {
                // The run may legitimately finish before the cancel lands;
                // only cancelled runs measure latency.
                if r.truncation == Some(TruncationReason::Cancelled) {
                    let latency = returned_at.saturating_duration_since(cancelled_at);
                    cancel_latency_worst = cancel_latency_worst.max(latency);
                    cancel_ranked_partial = cancel_ranked_partial.max(r.ranked.len());
                    cancels_landed += 1;
                    if !cancel_trace_captured {
                        // Keep this trace: later reps run untraced so the
                        // cancelled-run counters survive at `trace_out`.
                        cancel_trace_captured = std::fs::read_to_string(trace_out)
                            .map(|t| t.contains("resilience.cancel_latency_secs"))
                            .unwrap_or(false);
                    }
                    eprintln!(
                        "cancel try {rep}: latency {latency:?}, {} path(s) ranked partial",
                        r.ranked.len()
                    );
                } else {
                    eprintln!("cancel try {rep}: run finished before the cancel landed");
                }
            }
            Err(e) => {
                eprintln!("cancel try {rep}: ERROR {e} (cancellation must not error)");
                cancel_all_ok = false;
            }
        }
    }
    let cancel_observed = cancels_landed > 0;
    let cancel_latency_ok = cancel_all_ok
        && cancel_observed
        && cancel_trace_captured
        && cancel_latency_worst <= LATENCY_BOUND;

    // ---- Drill 2: deadline sweep. ----
    let mut deadline_json = String::from("[");
    let mut deadline_all_ok = true;
    for (i, frac) in [0.25f64, 0.5].iter().enumerate() {
        let budget = Duration::from_secs_f64((secs_unbounded * frac).max(0.002));
        let t = Instant::now();
        let r = AutoFeat::new(config(threads).with_time_budget(budget)).discover(&ctx);
        let elapsed = t.elapsed();
        let (ok, truncated, ranked) = match &r {
            Ok(r) => (true, r.truncation.is_some(), r.ranked.len()),
            Err(_) => (false, false, 0),
        };
        // Overrun bound: the budget plus one slow checkpoint interval.
        let overrun_ok = elapsed <= budget + LATENCY_BOUND;
        deadline_all_ok &= ok && overrun_ok;
        eprintln!(
            "deadline {frac}: budget {budget:?}, elapsed {elapsed:?}, truncated {truncated}, \
             {ranked} path(s)"
        );
        let _ = write!(
            deadline_json,
            "{}{{\"budget_secs\": {:.6}, \"elapsed_secs\": {:.6}, \"ok\": {ok}, \
             \"truncated\": {truncated}, \"ranked\": {ranked}, \"overrun_ok\": {overrun_ok}}}",
            if i == 0 { "" } else { ", " },
            budget.as_secs_f64(),
            elapsed.as_secs_f64(),
        );
    }
    deadline_json.push(']');

    // ---- Drill 3: panic isolation and healing. ----
    // Cache off: `panic_on_row` fires during index *builds*, and the warm
    // lake cache would otherwise serve sat000's index without ever
    // rebuilding it.
    faults::arm(
        "sat000",
        faults::TableFaults { panic_on_row: Some(0), slow_join_ms: None },
    );
    // The injected panic is expected: mute the default hook's backtrace so
    // the bench output stays readable, then restore it.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let faulted = AutoFeat::new(config(threads).with_cache(false)).discover(&ctx);
    std::panic::set_hook(prev_hook);
    faults::disarm("sat000");
    let (panic_isolated, panic_failures) = match &faulted {
        Ok(r) => (
            (r.resilience.worker_panics >= 1
                || r.failures.iter().any(|f| f.error.contains("panic")))
                && !r.ranked.is_empty(),
            r.failures.len(),
        ),
        Err(_) => (false, 0),
    };
    let healed = AutoFeat::new(config(threads)).discover(&ctx).expect("healed run");
    let healed_identical = results_identical(&reference, &healed);

    println!(
        "cancel latency (worst of {cancels_landed} landed in {cancel_tries} tries): \
         {cancel_latency_worst:?} (bound {LATENCY_BOUND:?}, ok {cancel_latency_ok}), panic isolated {panic_isolated} ({panic_failures} failure(s)), \
         healed identical {healed_identical}"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"resilience_probe\",");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"satellites\": {n_sat}, \"rows_per_satellite\": {}, \"dup_per_key\": {dup}}},",
        n_rows * dup
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"secs_unbounded\": {secs_unbounded:.6},");
    let _ = writeln!(
        json,
        "  \"cancel_latency_secs\": {:.6},",
        cancel_latency_worst.as_secs_f64()
    );
    let _ = writeln!(
        json,
        "  \"cancel_latency_bound_secs\": {:.3},",
        LATENCY_BOUND.as_secs_f64()
    );
    let _ = writeln!(json, "  \"cancel_latency_ok\": {cancel_latency_ok},");
    let _ = writeln!(json, "  \"cancel_observed\": {cancel_observed},");
    let _ = writeln!(json, "  \"cancels_landed\": {cancels_landed},");
    let _ = writeln!(json, "  \"cancel_tries\": {cancel_tries},");
    let _ = writeln!(json, "  \"cancel_trace\": \"{trace_out}\",");
    let _ = writeln!(json, "  \"cancel_trace_captured\": {cancel_trace_captured},");
    let _ = writeln!(json, "  \"cancel_ranked_partial\": {cancel_ranked_partial},");
    let _ = writeln!(json, "  \"deadlines\": {deadline_json},");
    let _ = writeln!(json, "  \"deadline_all_ok\": {deadline_all_ok},");
    let _ = writeln!(json, "  \"panic_isolated\": {panic_isolated},");
    let _ = writeln!(json, "  \"panic_failures\": {panic_failures},");
    let _ = writeln!(json, "  \"healed_identical\": {healed_identical}");
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if !cancel_observed {
        eprintln!(
            "CANCEL DRILL VIOLATION: could not land a cancel in {cancel_tries} tries (fired \
             {fire_after:?} into a {secs_unbounded:.4}s run) — nothing was measured"
        );
        std::process::exit(2);
    }
    if !cancel_latency_ok {
        eprintln!(
            "CANCEL DRILL VIOLATION: worst latency {cancel_latency_worst:?} (bound \
             {LATENCY_BOUND:?}) over {cancels_landed} landed cancel(s), trace captured \
             {cancel_trace_captured}"
        );
        std::process::exit(2);
    }
    if !deadline_all_ok {
        eprintln!("DEADLINE VIOLATION: a budgeted run errored or grossly overran its budget");
        std::process::exit(3);
    }
    if !(panic_isolated && healed_identical) {
        eprintln!(
            "PANIC ISOLATION VIOLATION: isolated {panic_isolated}, healed identical \
             {healed_identical}"
        );
        std::process::exit(4);
    }
}
