//! Printing a run, the host block, and `marketbench repeat`.

use crate::cell::WORKLOADS;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Args, Report};
use serde_json::{json, Map, Value};
use std::process::Command;

fn first_line(text: String) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

/// Device and filesystem type holding the working directory (where the
/// durable state goes), from the longest matching mount point.
fn fs_of_cwd() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (device, point, fstype) = (f.next()?, f.next()?, f.next()?);
            cwd.starts_with(point)
                .then(|| (point.len(), format!("{fstype} on {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// The host a result was measured on; printed with every result.
pub fn host_block() -> Value {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .map_or("unknown".into(), |o| {
            first_line(String::from_utf8_lossy(&o.stdout).into_owned())
        });
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rustc": rustc,
        "data_dir_fs": fs_of_cwd(),
        "loadavg_at_start": first_line(std::fs::read_to_string("/proc/loadavg").unwrap_or_default()),
    })
}

/// A metric's declared unit, and how to read it: which direction is
/// better and, for a per-layer metric, what it should move.
fn declared(name: &str) -> (&'static str, String) {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return (m.unit, format!("{} is better", m.better));
    }
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or(("", String::new()), |m| {
            (m.unit, format!("{} is better; moves {}", m.better, m.moves))
        })
}

/// Prints the evidence, every metric by name and unit, what failed, and
/// last the result line. Returns whether the run is correct.
pub fn print(args: &Args, traced: bool, host: &Value, report: &Report) -> bool {
    let w = &args.workload;
    println!(
        "marketbench {} seed={} seconds={} trace={}{}",
        w.name,
        args.seed,
        args.seconds,
        traced as u8,
        if args.smoke { " smoke" } else { "" }
    );
    println!("host: {host}");
    println!("flush policy: {}", w.flush_policy());
    for note in &report.notes {
        println!("{note}");
    }
    let mut metrics = Map::new();
    for (name, value) in &report.metrics {
        let (unit, reading) = declared(name);
        println!("{name:<36} {value:>16.6} {unit:<6} {reading}");
        metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    let unmeasured: Vec<_> = report
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(n, _)| *n)
        .collect();
    let correct = report.problems.is_empty() && unmeasured.is_empty();
    for problem in &report.problems {
        println!("FAILED: {problem}");
    }
    if !unmeasured.is_empty() {
        println!("FAILED: not measured: {unmeasured:?}");
    }
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": Value::Object(metrics),
        })
    );
    correct
}

/// One child run's end-to-end metrics, by name.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Map<String, Value>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("run of {workload} failed:\n{stdout}"));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("result line of {workload}: {e}"))?;
    result["metrics"]
        .as_object()
        .cloned()
        .ok_or_else(|| format!("result line of {workload} has no metrics"))
}

/// Runs every workload `sets` times, one process per run as the driver
/// does, alternating the order between sets, and prints per workload ×
/// metric every value, the largest relative difference from the first
/// set, and the bound. `Ok(false)` on a breach.
pub fn repeat(sets: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    println!("host: {}", host_block());
    let mut values: Vec<Vec<Map<String, Value>>> = vec![Vec::new(); WORKLOADS.len()];
    for set in 0..sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for i in order {
            eprintln!("set {} of {sets}: {}", set + 1, WORKLOADS[i].name);
            values[i].push(child_run(WORKLOADS[i].name, seed, seconds)?);
        }
    }
    let mut within = true;
    println!(
        "{:<18} {:<22} {:>30} {:>9} {:>7}",
        "workload", "metric", "values", "rel.diff", "bound"
    );
    for (w, runs) in WORKLOADS.iter().zip(&values) {
        for m in &END_TO_END {
            let vs: Vec<f64> = runs
                .iter()
                .map(|r| r[m.name]["value"].as_f64().unwrap_or(f64::NAN))
                .collect();
            let diff = vs
                .iter()
                .map(|v| (v - vs[0]).abs() / vs[0])
                .fold(0.0, f64::max);
            let breach = diff.is_nan() || diff > m.bound;
            within &= !breach;
            println!(
                "{:<18} {:<22} {:>30} {:>9.4} {:>7}{}",
                w.name,
                m.name,
                vs.iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                diff,
                m.bound,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok(within)
}
