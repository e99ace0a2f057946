//! Steadiness and compare modes.
//!
//! `steady` runs one workload N times (one child process per run, seeds
//! `first..first+N`), appends each run's result line to a JSON-lines result
//! set, and prints each metric's median, quartiles and spread (IQR as a
//! share of the median) beside its bound. `compare` reads two result sets
//! (parent, change) and gives one verdict per workload and end-to-end
//! metric — within bound, regressed or unresolved — by the bounds in
//! `BENCHMARK.json`.

use crate::stats::{median, quartiles, spread};
use fqbert_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};

/// An end-to-end metric's contract from `BENCHMARK.json`.
struct Bound {
    lower_is_better: bool,
    bound: f64,
}

fn benchmark_json() -> Result<Json, String> {
    let path = crate::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds() -> Result<BTreeMap<String, Bound>, String> {
    let doc = benchmark_json()?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err("malformed end_to_end entry in BENCHMARK.json".to_string());
        };
        out.insert(
            name.to_string(),
            Bound {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(out)
}

/// Metric values by name from one result set, for one workload.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_results(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: a line without result metrics"))?;
        let entry = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

pub fn steady(args: &[String]) -> i32 {
    let Some(f) = crate::flags(args) else {
        return crate::usage();
    };
    let (Some(workload), Some(runs)) = (
        f.get("workload"),
        f.get("runs").and_then(|r| r.parse::<u64>().ok()),
    ) else {
        return crate::usage();
    };
    let first: u64 = f.get("seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let run_seconds = benchmark_json()
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(Json::as_f64))
        .map_or_else(|| "10".to_string(), |s| s.to_string());
    let seconds = f.get("seconds").cloned().unwrap_or(run_seconds);
    let trace = f.get("trace").cloned().unwrap_or_else(|| "0".to_string());
    let out_path = f.get("out").cloned().unwrap_or_else(|| {
        crate::out_dir()
            .join(format!("steady-{workload}-trace{trace}.jsonl"))
            .display()
            .to_string()
    });
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return 1;
        }
    };
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut file = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{out_path}: {e}");
            return 1;
        }
    };
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    for seed in first..first + runs {
        let output = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds,
                "--trace",
                &trace,
            ])
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("run with seed {seed} exited with {}", o.status);
                return 1;
            }
            Err(e) => {
                eprintln!("run with seed {seed}: {e}");
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let provenance = stdout
            .lines()
            .find_map(|l| l.strip_prefix("provenance "))
            .unwrap_or("null");
        let Ok(result) = json::parse(last) else {
            eprintln!("run with seed {seed} printed no result");
            return 1;
        };
        let line = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"provenance\":{provenance},\"result\":{last}}}"
        );
        if let Err(e) = writeln!(file, "{line}") {
            eprintln!("{out_path}: {e}");
            return 1;
        }
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            values
                .entry(name.clone())
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
        eprintln!("seed {seed}: {last}");
    }
    let bounds = bounds().unwrap_or_default();
    println!("{workload}: {runs} runs, results appended to {out_path}");
    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>8} {:>7}  steady",
        "metric", "unit", "median", "q1", "q3", "spread", "bound"
    );
    for (name, (v, unit)) in &values {
        let (q1, q3) = quartiles(v);
        let bound = bounds.get(name).map(|b| b.bound);
        let steady = match bound {
            Some(b) if name != "setup_s" => {
                if spread(v) < b / 3.0 {
                    "yes"
                } else {
                    "NO"
                }
            }
            _ => "-",
        };
        println!(
            "{name:<34} {unit:>6} {:>14.6} {q1:>14.6} {q3:>14.6} {:>8.4} {:>7}  {steady}",
            median(v),
            spread(v),
            bound.map_or("-".to_string(), |b| b.to_string()),
        );
    }
    0
}

pub fn compare(args: &[String]) -> i32 {
    let [parent, change] = args else {
        return crate::usage();
    };
    let result = (|| -> Result<(), String> {
        let bounds = bounds()?;
        let parent = read_results(parent)?;
        let change = read_results(change)?;
        println!(
            "{:<18} {:<22} {:>14} {:>14} {:>10} {:>8}  verdict",
            "workload", "metric", "parent", "change", "ratio", "bound"
        );
        for (workload, p_metrics) in &parent {
            let Some(c_metrics) = change.get(workload) else {
                println!("{workload:<18} (no runs of the change)");
                continue;
            };
            for (name, bound) in &bounds {
                let (Some(p), Some(c)) = (p_metrics.get(name), c_metrics.get(name)) else {
                    continue;
                };
                let (pm, cm) = (median(p), median(c));
                let worse = if bound.lower_is_better {
                    cm / pm - 1.0
                } else {
                    1.0 - cm / pm
                };
                let all_better = if bound.lower_is_better {
                    c.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                        < p.iter().cloned().fold(f64::INFINITY, f64::min)
                } else {
                    c.iter().cloned().fold(f64::INFINITY, f64::min)
                        > p.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                };
                let verdict = if spread(p) > bound.bound && !all_better {
                    "unresolved"
                } else if worse > bound.bound {
                    "regressed"
                } else {
                    "within bound"
                };
                println!(
                    "{workload:<18} {name:<22} {pm:>14.6} {cm:>14.6} {:>10.4} {:>8}  {verdict}",
                    cm / pm,
                    bound.bound
                );
            }
        }
        println!("ratio = change median / parent median; bound = allowed worsening as a share of the parent median");
        Ok(())
    })();
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}
