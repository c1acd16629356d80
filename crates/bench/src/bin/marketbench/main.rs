//! `marketbench`: the benchmark of record. A seeded request stream is
//! driven through `om_http`'s event engine into one platform×backend
//! cell, closed loop for the peak and open loop up a ladder of rates;
//! every metric is printed by name and unit and the outputs are audited.
//! See `README.md` beside this file.
//!
//! ```text
//! marketbench [run]  --workload W --seed N [--seconds S] [--trace 0|1] [--smoke]
//! marketbench trace  --workload W --seed N            (same as --trace 1)
//! marketbench repeat [--sets 2] [--seed N] [--seconds S]
//! ```

mod audit;
mod cell;
mod layers;
mod load;
mod metrics;
mod placement;
mod report;
mod run;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use cell::DECLARED_SECONDS;

/// Where a run keeps its durable state and writes `trace-<workload>.json`:
/// under the working directory, so on the checkout's own disk.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".marketbench")
}

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: DECLARED_SECONDS,
        trace: false,
        smoke: false,
        sets: 2,
    };
    let mut args = args.iter().peekable();
    if let Some(first) = args.peek() {
        if !first.starts_with("--") {
            cli.command = args.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(cli.seconds >= 1.0 && cli.seconds <= 60.0) {
                    return Err(bad("between 1 and 60"));
                }
            }
            "--trace" => cli.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--sets" => {
                cli.sets = value.parse().map_err(|_| bad("a whole number"))?;
                if cli.sets < 2 {
                    return Err(bad("at least 2: one set has nothing to agree with"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match cli.command.as_str() {
        "run" | "repeat" => {}
        "trace" => cli.trace = true,
        other => return Err(format!("unknown command {other}")),
    }
    Ok(cli)
}

fn run_args(cli: &Cli) -> Result<run::Args, String> {
    let name = cli.workload.as_deref().ok_or("--workload is required")?;
    let workload = cell::Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = cell::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    let workload = if cli.smoke {
        workload.smoke()
    } else {
        workload.clone()
    };
    Ok(run::Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match cli.command.as_str() {
        "repeat" => report::repeat(cli.sets, cli.seed, cli.seconds),
        _ => {
            let args = run_args(&cli)?;
            let host = report::host_block();
            let report = if cli.trace {
                layers::measure(&args)
            } else {
                run::measure(&args)
            };
            Ok(report::print(&args, cli.trace, &host, &report))
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("marketbench: {usage}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` at the repository root, found from this file so
    /// that it is the same file whichever package builds the test.
    const DECLARED: &str = include_str!("../../../../../BENCHMARK.json");

    fn names(list: &serde_json::Value) -> BTreeSet<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|entry| entry["name"].as_str().expect("a name").to_string())
            .collect()
    }

    fn emitted(report: &run::Report) -> BTreeSet<String> {
        report.metrics.iter().map(|(n, _)| n.to_string()).collect()
    }

    #[test]
    fn declaration_matches_the_metric_tables() {
        let declared: serde_json::Value = serde_json::from_str(DECLARED).unwrap();
        assert_eq!(declared["run_seconds"].as_f64(), Some(DECLARED_SECONDS));
        assert_eq!(
            declared["paths"][0].as_str(),
            Some("crates/bench/src/bin/marketbench")
        );
        let e2e = declared["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        for (d, m) in e2e.iter().zip(&metrics::END_TO_END) {
            assert_eq!(d["name"].as_str(), Some(m.name));
            assert_eq!(d["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(d["better"].as_str(), Some(m.better), "{}", m.name);
            assert_eq!(d["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }
        let layers = declared["per_layer"].as_array().unwrap();
        assert_eq!(layers.len(), metrics::PER_LAYER.len());
        for (d, m) in layers.iter().zip(&metrics::PER_LAYER) {
            assert_eq!(d["name"].as_str(), Some(m.name));
            assert_eq!(d["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(d["better"].as_str(), Some(m.better), "{}", m.name);
        }
    }

    #[test]
    fn cli_refuses_what_it_cannot_run() {
        let cli = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_cli(&args).map(|cli| cli.sets)
        };
        assert_eq!(cli(&["repeat"]), Ok(2));
        assert_eq!(cli(&["repeat", "--sets", "3"]), Ok(3));
        // One set, or none, has nothing to agree with.
        assert!(cli(&["repeat", "--sets", "1"]).is_err());
        assert!(cli(&["repeat", "--sets", "0"]).is_err());
        // The pinned rates are not a flag.
        assert!(cli(&["run", "--ladder", "1,2,3,4"]).is_err());
        assert!(cli(&["run", "--seconds", "0"]).is_err());
    }

    /// Every workload for about a second at tiny rates, untraced and
    /// traced: the names emitted are the names declared, every value is
    /// a finite number, and the audit passes.
    #[test]
    fn smoke_every_workload_emits_exactly_the_declared_metrics() {
        let declared: serde_json::Value = serde_json::from_str(DECLARED).unwrap();
        let workloads: BTreeSet<String> = cell::WORKLOADS.iter().map(|w| w.name.into()).collect();
        assert_eq!(names(&declared["workloads"]), workloads);
        for w in &cell::WORKLOADS {
            let args = run::Args {
                workload: w.smoke(),
                seed: 7,
                seconds: 1.0,
                smoke: true,
            };
            for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = if traced {
                    layers::measure(&args)
                } else {
                    run::measure(&args)
                };
                assert_eq!(report.problems, Vec::<String>::new(), "{} {list}", w.name);
                assert_eq!(
                    emitted(&report),
                    names(&declared[list]),
                    "{} {list}",
                    w.name
                );
                for (name, value) in &report.metrics {
                    assert!(value.is_finite(), "{} {name} = {value}", w.name);
                }
                assert!(
                    report.attempted > 0 && report.failed == 0,
                    "{} {list}",
                    w.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(out_dir());
    }
}
