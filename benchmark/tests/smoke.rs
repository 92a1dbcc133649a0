//! Harness self-test: every workload at smoke size (1/16 of the rows, one
//! op per client), both untraced and traced. Checks the harness, not the
//! numbers.

use lakebench::json::Json;
use lakebench::report::{self, Stamp, WorkloadRuns};
use lakebench::{run_workload, MetricDef, Opts, RunOutput, END_TO_END, PER_LAYER, WORKLOADS};

fn smoke(name: &str, trace: bool, corrupt_reference: bool) -> RunOutput {
    let opts = Opts {
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
        corrupt_reference,
    };
    run_workload(name, &opts).expect("workload exists")
}

fn well_formed(name: &str, max_len: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max_len
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn catalogue_fits_the_contract() {
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name));
    for name in &names {
        assert!(
            well_formed(name, 64, "_.-") && name.as_bytes()[0].is_ascii_alphanumeric(),
            "{name}"
        );
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(well_formed(d.unit, 16, "_/%.-"), "unit of {}", d.name);
        assert!(d.better == "lower" || d.better == "higher");
    }
    assert!(END_TO_END
        .iter()
        .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for w in &WORKLOADS {
        let out = smoke(w.name, false, false);
        assert!(
            out.correct && out.failed == 0 && out.attempted >= 1,
            "{}: {:?}",
            w.name,
            out.notes
        );
        for (def, value) in out.metrics(false) {
            assert!(
                out.values.contains_key(def.name),
                "{} did not measure {}",
                w.name,
                def.name
            );
            assert!(
                value.is_finite() && value > 0.0,
                "{} {} = {value}",
                w.name,
                def.name
            );
        }
        let line = Json::parse(&report::result_line(&out, false)).expect("result line is JSON");
        assert_eq!(report::line_metrics(&line).len(), END_TO_END.len());

        let traced = smoke(w.name, true, false);
        assert!(traced.correct, "{} traced: {:?}", w.name, traced.notes);
        assert!(
            traced
                .trace_json
                .as_deref()
                .is_some_and(|t| Json::parse(t).is_ok()),
            "{} span file",
            w.name
        );
        for (def, value) in traced.metrics(true) {
            assert!(value.is_finite(), "{} {} = {value}", w.name, def.name);
        }
        // The layers every workload exercises must have been seen at work.
        for name in [
            "data.join.probe_gather_ms",
            "metrics.redundancy.score_ms",
            "core.discover.ms",
            "bench.replay.coverage",
        ] {
            assert!(
                traced.values.get(name).is_some_and(|v| *v > 0.0),
                "{} {name}",
                w.name
            );
        }
    }
}

#[test]
fn a_corrupted_reference_is_counted_as_failed() {
    let out = smoke("star_warm", false, true);
    assert!(!out.correct);
    assert_eq!(out.failed, out.attempted);
}

fn result_file(scale_latency: f64) -> Json {
    let w = &WORKLOADS[0];
    let mut out = smoke(w.name, false, false);
    *out.values.get_mut("op_p50_ms").expect("measured") *= scale_latency;
    let untraced = vec![Json::parse(&report::result_line(&out, false)).expect("line")];
    let traced =
        Json::parse(&report::result_line(&smoke(w.name, true, false), true)).expect("line");
    let runs = [WorkloadRuns {
        name: w.name,
        why: w.why,
        clients: w.clients,
        threads: w.threads,
        untraced,
        traced,
    }];
    let stamp = Stamp {
        commit: "test".into(),
        nproc: 2,
        rustc: "test".into(),
        seed: 7,
        passes: 1,
        seconds: 0.0,
        smoke: true,
    };
    Json::parse(&report::run_file(&stamp, &runs)).expect("result file is JSON")
}

#[test]
fn compare_passes_a_file_against_itself_and_flags_a_regression() {
    let file = result_file(1.0);
    let table = report::compare(&file, &file).expect("a file agrees with itself");
    assert!(table.contains("op_p50_ms") && table.contains("pass"));
    // Latency 100x worse: far past the bound, whatever the two smoke runs measured.
    let table = report::compare(&file, &result_file(100.0)).expect_err("a regression is flagged");
    assert!(table.contains("regressed"));
}

#[test]
fn benchmark_json_names_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();

    let workloads: Vec<(String, String)> = file
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.into(), w.why.into()))
        .collect();
    assert_eq!(workloads, ours);

    let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
        file.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    };
    let catalogue = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(listed("per_layer"), catalogue(&PER_LAYER));
    assert_eq!(
        file.get("paths").expect("paths").items(),
        [Json::Str("benchmark".into())]
    );
}
