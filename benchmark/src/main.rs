//! Command line of the benchmark.
//!
//! ```text
//! lakebench --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run of one workload
//! lakebench [--seed N] [--seconds S] [--smoke]                        every workload, 5 untraced passes + 1 traced
//! lakebench --compare A.json B.json                                   two result files side by side
//! ```
//!
//! A run prints each metric by name with its unit, then — as the last line
//! of standard output — one JSON object `{correct, attempted, failed,
//! metrics}`. It exits 0 only when every output was correct.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use lakebench::json::Json;
use lakebench::report::{self, Stamp, WorkloadRuns};
use lakebench::{run_workload, Opts, WORKLOADS};

/// Window of a pass when every workload runs: short windows interleaved
/// with the other workloads repeat better on a shared box than one long one.
const PASS_SECONDS: f64 = 3.0;
const PASSES: usize = 5;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lakebench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if let Some(workload) = &args.workload {
        one_run(workload, &args)
    } else {
        all_workloads(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lakebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn one_run(workload: &str, args: &Args) -> Result<bool, String> {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(PASS_SECONDS),
        trace: args.trace,
        smoke: args.smoke,
        corrupt_reference: false,
    };
    let out = run_workload(workload, &opts).ok_or(format!("unknown workload `{workload}`"))?;
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for (def, value) in out.metrics(opts.trace) {
        println!("  {:<36} {value:>16.4} {}", def.name, def.unit);
    }
    for note in &out.notes {
        println!("  {note}");
    }
    if let Some(trace) = &out.trace_json {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace_{workload}.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    println!("{}", report::result_line(&out, opts.trace));
    Ok(out.correct)
}

/// One run in a child process (so peak memory and allocator state are the
/// workload's own); returns its result line.
fn child_run(workload: &str, args: &Args, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its exit code is restated by the
    // `correct` field of the line it printed.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if trace {
        print!("{stdout}");
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: the run printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{workload}: bad result line ({e}): {last}"))
}

fn all_workloads(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(PASS_SECONDS);
    let stamp = Stamp::take(args.seed, PASSES, seconds, args.smoke);
    let mut untraced: Vec<Vec<Json>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for pass in 0..PASSES {
        for (w, lines) in WORKLOADS.iter().zip(&mut untraced) {
            eprintln!("pass {}/{PASSES}  {}", pass + 1, w.name);
            lines.push(child_run(w.name, args, seconds, false)?);
        }
    }
    let mut runs = Vec::new();
    for (w, untraced) in WORKLOADS.iter().zip(untraced) {
        eprintln!("traced pass  {}", w.name);
        let traced = child_run(w.name, args, seconds, true)?;
        runs.push(WorkloadRuns {
            name: w.name,
            why: w.why,
            clients: w.clients,
            threads: w.threads,
            untraced,
            traced,
        });
    }
    let text = report::run_file(&stamp, &runs);
    let file = Json::parse(&text).map_err(|e| format!("result file does not read back: {e}"))?;
    print!("{}", report::render(&file));
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = dir.join(format!("run_{unix}.json"));
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresult file: {}", path.display());
    let correct = file
        .get("workloads")
        .map(|w| w.fields())
        .unwrap_or_default()
        .iter()
        .all(|(_, w)| w.get("correct").and_then(Json::as_bool) == Some(true));
    Ok(correct)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match report::compare(&read(a)?, &read(b)?) {
        Ok(table) => {
            print!("{table}");
            Ok(true)
        }
        Err(table) => {
            print!("{table}");
            Ok(false)
        }
    }
}
