//! Command line of the benchmark.
//!
//! ```text
//! pcube-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pcube-benchmark all     [--seeds 42,43,…] [--seconds <s>] [--trace <0|1>] [--out <file>]
//! pcube-benchmark compare <base.json> <candidate.json>
//! pcube-benchmark compare [--runs <n>] [--seconds <s>]
//! ```
//!
//! The first form is what the pipeline runs: one workload, one process, and
//! as the last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `all` runs the four workloads (one
//! child process each, so that peak memory is per workload) and prints every
//! metric by name with its unit; `compare` diffs two such result sets.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use pcube_benchmark::compare::{self, Run};
use pcube_benchmark::json::Json;
use pcube_benchmark::metrics::{self, Metrics};
use pcube_benchmark::workloads::{self, RunConfig, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => single(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pcube-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs; anything else is an error.
fn flags(args: &[String]) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let mut named = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(key) => {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                named.insert(key.to_string(), value.clone());
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok((named, positional))
}

fn number<T: std::str::FromStr>(
    named: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match named.get(key) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{key}: cannot read {text:?}")),
        None => Ok(default),
    }
}

fn known(named: &BTreeMap<String, String>, allowed: &[&str]) -> Result<(), String> {
    match named.keys().find(|k| !allowed.contains(&k.as_str())) {
        Some(k) => Err(format!(
            "unknown flag --{k} (known: {})",
            allowed.join(", ")
        )),
        None => Ok(()),
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.to_json()),
    ])
}

/// One workload in this process: the form the pipeline runs.
fn single(args: &[String]) -> Result<bool, String> {
    let (named, positional) = flags(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    known(
        &named,
        &["workload", "seed", "seconds", "trace", "scale", "full"],
    )?;
    let manifest = metrics::manifest();
    let workload = named
        .get("workload")
        .ok_or("--workload is required (or use `all` / `compare`)")?
        .clone();
    if !manifest.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            manifest.workloads.join(", ")
        ));
    }
    let trace = match number::<u8>(&named, "trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let scale = match named.get("scale").map(String::as_str) {
        None | Some("full") => Scale::Full,
        Some("smoke") => Scale::Smoke,
        Some(other) => return Err(format!("--scale takes full or smoke, not {other:?}")),
    };
    let seconds: f64 = number(&named, "seconds", manifest.run_seconds)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let cfg = RunConfig {
        workload: workload.clone(),
        seed: number(&named, "seed", 42)?,
        seconds,
        trace,
        scale,
        out_dir: workloads::default_out_dir(),
    };
    let full = number::<u8>(&named, "full", 0)? == 1;

    let result = workloads::run(&cfg)?;
    for failure in &result.failures {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "workload {workload}  seed {}  seconds {seconds}  trace {}  threads available {}",
        cfg.seed,
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for (name, v) in &result.metrics.0 {
        println!("  {name:<46} {:>16.6} {}", v.value, v.unit);
    }
    // The pipeline reads exactly the manifest's list for the mode it asked
    // for; `--full 1` keeps every metric the run produced.
    let wanted = if trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut printed = Metrics::default();
    if full {
        printed = result.metrics.clone();
    } else {
        for metric in wanted {
            let v =
                result.metrics.0.get(&metric.name).ok_or_else(|| {
                    format!("{workload} did not produce the metric {}", metric.name)
                })?;
            if v.unit != metric.unit {
                return Err(format!(
                    "{}: measured in {}, the manifest says {}",
                    metric.name, v.unit, metric.unit
                ));
            }
            printed.0.insert(metric.name.clone(), v.clone());
        }
    }
    if let Some((name, _)) = printed.0.iter().find(|(_, v)| !v.value.is_finite()) {
        return Err(format!("{name} is not a finite number"));
    }
    let correct = result.failed == 0;
    println!(
        "{}",
        result_line(correct, result.attempted.max(1), result.failed, &printed)
    );
    Ok(correct)
}

/// Runs every workload once per seed, each in a child process of its own.
fn run_set(seeds: &[u64], seconds: f64, trace: u8, scale: &str) -> Result<Vec<Run>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut runs = Vec::new();
    for &seed in seeds {
        for workload in metrics::WORKLOADS {
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args([
                    "--trace",
                    &trace.to_string(),
                    "--scale",
                    scale,
                    "--full",
                    "1",
                ])
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let mut json = Json::parse(last).map_err(|e| {
                format!(
                    "{workload} (seed {seed}) printed no result line ({e}); exit {}",
                    output.status
                )
            })?;
            if let Json::Obj(pairs) = &mut json {
                pairs.insert(0, ("workload".to_string(), Json::Str(workload.to_string())));
                pairs.insert(1, ("seed".to_string(), Json::Num(seed as f64)));
            }
            let run = Run::from_json(&json)?;
            println!(
                "{workload} (seed {seed}){}",
                if run.correct { "" } else { "  ** INCORRECT **" }
            );
            for (name, (value, unit)) in &run.metrics {
                println!("  {name:<46} {value:>16.6} {unit}");
            }
            runs.push(run);
        }
    }
    Ok(runs)
}

fn seeds_of(named: &BTreeMap<String, String>, default: &str) -> Result<Vec<u64>, String> {
    named
        .get("seeds")
        .map_or(default, String::as_str)
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("--seeds: cannot read {s:?}"))
        })
        .collect()
}

fn all(args: &[String]) -> Result<bool, String> {
    let (named, positional) = flags(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    known(&named, &["seeds", "seconds", "trace", "scale", "out"])?;
    let seconds = number(&named, "seconds", metrics::manifest().run_seconds)?;
    let scale = named.get("scale").map_or("full", String::as_str);
    let runs = run_set(
        &seeds_of(&named, "42")?,
        seconds,
        number(&named, "trace", 0)?,
        scale,
    )?;
    if let Some(path) = named.get("out") {
        let file = Json::obj([("runs", Json::Arr(runs.iter().map(Run::to_json).collect()))]);
        std::fs::write(path, format!("{file}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(runs.iter().all(|r| r.correct))
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let (named, positional) = flags(args)?;
    known(&named, &["runs", "seconds", "scale"])?;
    let (base, candidate) = match positional.as_slice() {
        [a, b] => {
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|t| compare::parse_results(&t))
            };
            (read(a)?, read(b)?)
        }
        [] => {
            // The same build twice, on the same seeds: what a regression
            // check between two commits looks like when nothing changed.
            let n: u64 = number(&named, "runs", 3)?;
            let seeds: Vec<u64> = (0..n).map(|i| 42 + i).collect();
            let seconds = number(&named, "seconds", metrics::manifest().run_seconds)?;
            let scale = named.get("scale").map_or("full", String::as_str);
            (
                run_set(&seeds, seconds, 0, scale)?,
                run_set(&seeds, seconds, 0, scale)?,
            )
        }
        _ => return Err("compare takes two result files, or none".to_string()),
    };
    let (text, bad) = compare::table(&base, &candidate);
    print!("{text}");
    Ok(!bad)
}
