//! Fail-soft discovery over a corrupted lake: generate a snowflake dataset,
//! serialize it to CSV, inject realistic export faults (truncated files,
//! ragged rows, dangling keys, NaN floats, duplicated headers), then run the
//! whole pipeline — lenient ingestion with quarantine, per-path error
//! isolation, NaN-safe ranking — and print the accounting at every layer.
//! Finishes with a request-lifecycle demo: a pathologically slow join is
//! armed and the run is cancelled from another thread, winding down into a
//! ranked partial result instead of erroring.
//!
//! ```text
//! cargo run --release --example fail_soft_lake
//! ```

use std::collections::HashMap;

use autofeat::core::{discovery_health_report, load_lake_dir};
use autofeat::data::csv::{write_csv_str, CsvReadOptions};
use autofeat::datagen::{self, FaultInjector, FaultKind};
use autofeat::prelude::*;

fn main() {
    // ---- 1. Generate a clean snowflake lake and serialize it. ----
    let gt = datagen::generator::generate(&datagen::GroundTruthConfig {
        n_rows: 400,
        ..Default::default()
    });
    let sf = datagen::splitter::split(&gt, &datagen::SnowflakeConfig::default());
    let mut texts: HashMap<String, String> = HashMap::new();
    texts.insert("base".into(), write_csv_str(&sf.base));
    for t in &sf.satellites {
        texts.insert(t.name().to_string(), write_csv_str(t));
    }

    // ---- 2. Corrupt it the way real exports break. ----
    let mut inj = FaultInjector::new(42);
    let corrupted: Vec<(String, String)> = vec![
        ("base".into(), texts["base"].clone()),
        ("s0".into(), texts["s0"].clone()),
        ("s1".into(), inj.inject("s1", &texts["s1"], FaultKind::DanglingKeys)),
        ("s2".into(), inj.inject("s2", &texts["s2"], FaultKind::NanFloats)),
        ("s3".into(), inj.inject("s3", &texts["s3"], FaultKind::TruncatedRows)),
        ("s4".into(), inj.inject("s4", &texts["s4"], FaultKind::RaggedRows)),
    ];
    println!("Injected faults:");
    for f in &inj.manifest {
        println!("  - {:<3} {:?}: {}", f.table, f.kind, f.detail);
    }

    let dir = std::env::temp_dir().join("autofeat_fail_soft_example");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, text) in &corrupted {
        std::fs::write(dir.join(format!("{name}.csv")), text).expect("write csv");
    }

    // ---- 3. Lenient ingestion: repair what can be repaired, quarantine ----
    //         what cannot, and account for every file either way.
    let report = load_lake_dir(&dir, &CsvReadOptions::lenient()).expect("lake dir readable");
    println!("\n{}", report.summary());

    // Contrast with strict mode, which refuses any structural damage.
    let strict = load_lake_dir(&dir, &CsvReadOptions::strict()).expect("lake dir readable");
    println!(
        "(strict mode would quarantine {} table(s) instead of {})",
        strict.quarantined.len(),
        report.quarantined.len()
    );

    // ---- 4. Discovery over the survivors, with a deadline. ----
    let kfk: Vec<(String, String, String, String)> = sf
        .kfk
        .iter()
        .map(|e| {
            (
                e.parent_table.clone(),
                e.parent_column.clone(),
                e.child_table.clone(),
                e.child_column.clone(),
            )
        })
        .collect();
    let ctx = SearchContext::from_kfk(report.tables.clone(), &kfk, "base", &sf.label)
        .expect("context builds");
    let config = AutoFeatConfig::paper().with_time_budget(std::time::Duration::from_secs(30));
    let result = AutoFeat::new(config.clone()).discover(&ctx).expect("discovery never aborts");

    println!("\n{}", discovery_health_report(&result));
    println!("\nTop paths over the surviving healthy subtree:");
    for r in result.ranked.iter().take(3) {
        println!("  {:>7.4}  {}  ({} features)", r.score, r.path, r.features.len());
    }

    // ---- 5. Train on what survived. ----
    let out = train_top_k(&ctx, &result, &[ModelKind::RandomForest], &config)
        .expect("training on surviving paths");
    let best = out.best_path.as_ref().map(|p| p.path.to_string()).unwrap_or_default();
    println!("\nTrained on best path `{best}`: accuracy {:.3}", out.result.mean_accuracy());

    // ---- 6. Request lifecycle: cancel a run mid-flight. ----
    //         Arm a pathological 10-second join and cancel from another
    //         thread 50ms in. Cancellation is anytime semantics, not an
    //         error: whatever was ranked before the cancel is returned, the
    //         truncation reason and cancel latency are accounted. A cancel
    //         is final: a later request gets its own control
    //         (`ctx.clone().with_request_control(..)`), as the service gives
    //         every request.
    let slow_join = autofeat::data::faults::TableFaults {
        slow_join_ms: Some(10_000),
        ..Default::default()
    };
    ctx.fault_domain().arm("s0", slow_join);
    let ctrl = std::sync::Arc::clone(ctx.control());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(50));
        ctrl.cancel();
    });
    let t0 = std::time::Instant::now();
    let partial = AutoFeat::new(config).discover(&ctx).expect("cancellation is not an error");
    canceller.join().expect("canceller thread");
    ctx.fault_domain().disarm("s0");
    println!(
        "\nCancelled mid-run after {:?}: {} path(s) still ranked, cancel latency {:?}",
        t0.elapsed(),
        partial.ranked.len(),
        partial.resilience.cancel_latency,
    );
    println!("\n{}", discovery_health_report(&partial));

    std::fs::remove_dir_all(&dir).ok();
}
