//! What the benchmark writes and reads back: the one-line result of a run,
//! the stamped result file of a full set of passes, and `--compare`.

use std::fmt::Write as _;
use std::process::Command;

use crate::json::{quote, Json};
use crate::{median, quartiles, MetricDef, RunOutput, END_TO_END, PER_LAYER};

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The last line of a run's standard output.
pub fn result_line(out: &RunOutput, trace: bool) -> String {
    let metrics: Vec<String> = out
        .metrics(trace)
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                num(*v),
                quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The metrics of a result line, by name.
pub fn line_metrics(line: &Json) -> Vec<(String, f64)> {
    line.get("metrics")
        .map(|m| m.fields())
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// Where and how a set of passes ran. Numbers from different stamps are
/// not compared silently: `--compare` refuses when `nproc`, `seed`,
/// `passes`, `seconds` or `smoke` differ.
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub rustc: String,
    pub seed: u64,
    pub passes: usize,
    pub seconds: f64,
    pub smoke: bool,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl Stamp {
    pub fn take(seed: u64, passes: usize, seconds: f64, smoke: bool) -> Stamp {
        Stamp {
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line_of("rustc", &["--version"]),
            seed,
            passes,
            seconds,
            smoke,
        }
    }
}

/// One workload over all passes: the untraced passes' result lines and the
/// traced pass's.
pub struct WorkloadRuns {
    pub name: &'static str,
    pub why: &'static str,
    pub clients: usize,
    pub threads: usize,
    pub untraced: Vec<Json>,
    pub traced: Json,
}

fn counter(lines: &[Json], key: &str) -> f64 {
    lines.iter().filter_map(|l| l.get(key)?.as_f64()).sum()
}

/// Median and inter-quartile range over passes of one end-to-end metric.
fn over_passes(lines: &[Json], name: &str) -> (f64, f64, usize) {
    let samples: Vec<f64> = lines
        .iter()
        .filter_map(|l| l.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect();
    let iqr = quartiles(&samples).map_or(0.0, |(q1, q3)| q3 - q1);
    (median(&samples), iqr, samples.len())
}

/// The stamped result file.
pub fn run_file(stamp: &Stamp, workloads: &[WorkloadRuns]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"stamp\": {{\"commit\": {}, \"nproc\": {}, \"rustc\": {}, \"seed\": {}, \"passes\": {}, \"seconds\": {}, \"smoke\": {}}},",
        quote(&stamp.commit),
        stamp.nproc,
        quote(&stamp.rustc),
        stamp.seed,
        stamp.passes,
        num(stamp.seconds),
        stamp.smoke
    );
    out.push_str("  \"workloads\": {\n");
    for (i, w) in workloads.iter().enumerate() {
        let attempted = counter(&w.untraced, "attempted");
        let failed = counter(&w.untraced, "failed");
        let correct = w
            .untraced
            .iter()
            .chain([&w.traced])
            .all(|l| l.get("correct").and_then(Json::as_bool) == Some(true));
        let _ = writeln!(
            out,
            "    {}: {{\n      \"why\": {}, \"clients\": {}, \"threads\": {}, \"ops\": {attempted}, \"failed\": {failed}, \"failed_share\": {}, \"correct\": {correct},",
            quote(w.name),
            quote(w.why),
            w.clients,
            w.threads,
            num(if attempted > 0.0 { failed / attempted } else { 1.0 }),
        );
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                let (value, iqr, samples) = over_passes(&w.untraced, d.name);
                let bound = d.bound.unwrap_or(0.0);
                let status = if value != 0.0 && iqr / value.abs() > bound { "unresolved" } else { "ok" };
                format!(
                    "        {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}, \"iqr\": {}, \"samples\": {samples}, \"status\": \"{status}\"}}",
                    quote(d.name),
                    num(value),
                    quote(d.unit),
                    quote(d.better),
                    num(iqr)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "      \"end_to_end\": {{\n{}\n      }},",
            e2e.join(",\n")
        );
        let traced = line_metrics(&w.traced);
        let layers: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                let value = traced
                    .iter()
                    .find(|(n, _)| n == d.name)
                    .map_or(0.0, |(_, v)| *v);
                format!(
                    "        {}: {{\"value\": {}, \"unit\": {}}}",
                    quote(d.name),
                    num(value),
                    quote(d.unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "      \"per_layer\": {{\n{}\n      }}",
            layers.join(",\n")
        );
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// A human-readable table of one result file.
pub fn render(file: &Json) -> String {
    let mut out = String::new();
    for (name, w) in file
        .get("workloads")
        .map(|w| w.fields())
        .unwrap_or_default()
    {
        let get = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "\n== {name}  ops {}  failed {}  failed_share {}",
            get("ops"),
            get("failed"),
            get("failed_share")
        );
        for (metric, m) in w.get("end_to_end").map(|m| m.fields()).unwrap_or_default() {
            let f = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let _ = writeln!(
                out,
                "  {metric:<16} {:>14.4} {:<6} iqr {:>10.4} over {} passes  bound {:.2} ({} is better)  {}",
                f("value"),
                s("unit"),
                f("iqr"),
                f("samples"),
                f("bound"),
                s("better"),
                s("status")
            );
        }
        for (metric, m) in w.get("per_layer").map(|m| m.fields()).unwrap_or_default() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            if value != 0.0 {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let _ = writeln!(out, "    {metric:<36} {value:>16.4} {unit}");
            }
        }
    }
    out
}

fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// Per workload × end-to-end metric: both values, the change, the bound and
/// a verdict. `Err` (with the same table) when any row regressed or the two
/// files were not measured the same way.
pub fn compare(a: &Json, b: &Json) -> Result<String, String> {
    let mut out = String::new();
    let mut bad = false;
    for key in ["nproc", "seed", "passes", "seconds", "smoke"] {
        let (x, y) = (
            a.get("stamp").and_then(|s| s.get(key)),
            b.get("stamp").and_then(|s| s.get(key)),
        );
        if x != y || x.is_none() {
            let _ = writeln!(out, "stamp field `{key}` differs: {x:?} vs {y:?}");
            bad = true;
        }
    }
    let _ = writeln!(
        out,
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let workloads_b = b.get("workloads");
    for (name, wa) in a.get("workloads").map(|w| w.fields()).unwrap_or_default() {
        let Some(wb) = workloads_b.and_then(|w| w.get(name)) else {
            let _ = writeln!(out, "{name:<18} missing from B");
            bad = true;
            continue;
        };
        let failed = |w: &Json| {
            w.get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY)
        };
        if failed(wb) > failed(wa) {
            let _ = writeln!(
                out,
                "{name:<18} {:<14} {:>14} {:>14} {:>9} {:>6}  regressed",
                "failed",
                failed(wa),
                failed(wb),
                "",
                ""
            );
            bad = true;
        }
        for (metric, ma) in wa.get("end_to_end").map(|m| m.fields()).unwrap_or_default() {
            let (Some(def), Some(mb)) = (
                def_of(metric),
                wb.get("end_to_end").and_then(|m| m.get(metric)),
            ) else {
                let _ = writeln!(
                    out,
                    "{name:<18} {metric:<14} not in both files or not in the catalogue"
                );
                bad = true;
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unresolved = |m: &Json| m.get("status").and_then(Json::as_str) != Some("ok");
            let (va, vb) = (value(ma), value(mb));
            let change = (vb - va) / va;
            let worse = if def.better == "lower" {
                change
            } else {
                -change
            };
            let bound = def.bound.unwrap_or(0.0);
            let verdict = if worse > bound || !change.is_finite() {
                bad = true;
                "regressed"
            } else if unresolved(ma) || unresolved(mb) {
                "unresolved"
            } else {
                "pass"
            };
            let _ = writeln!(
                out,
                "{name:<18} {metric:<14} {va:>14.4} {vb:>14.4} {:>+8.2}% {bound:>6.2}  {verdict}",
                change * 100.0
            );
        }
    }
    if bad {
        Err(out)
    } else {
        Ok(out)
    }
}
