//! `ndbench`: the end-to-end and per-layer benchmark for NDSNN sparse
//! training, fleet serving and batch inference. See README.md.
//!
//! ```text
//! ndbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ndbench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run prints its checks, every metric with its unit, and as its last
//! line `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when a
//! correctness check or an operation failed, 2 on a usage error. A run whose
//! offered load strayed from the workload's is marked invalid in its
//! `--out` record, and `compare` leaves it out.

mod compare;
mod gen;
mod infer;
mod json;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;
mod workload;

use std::io::Write as _;
use std::process::Command;

use spec::Spec;
use trace::Tracer;
use workload::{Scale, NAMES};

const USAGE: &str = "usage: ndbench --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]\n       ndbench compare PARENT CHANGE";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

#[derive(Debug, PartialEq)]
enum Cmd {
    Run(Args),
    Compare(String, String),
}

fn parse(argv: &[String], default_seconds: f64) -> Result<Cmd, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv {
            [_, parent, change] => Ok(Cmd::Compare(parent.clone(), change.clone())),
            _ => Err(USAGE.into()),
        };
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: default_seconds,
        trace: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out = Some(value("a file")?),
            // `--trace 0`, `--trace 1`, or a bare `--trace`.
            "--trace" => {
                let explicit = it.next_if(|v| *v == "0" || *v == "1");
                args.trace = explicit.is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}\n{USAGE}",
            NAMES.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Cmd::Run(args))
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        }),
    };
    id.map(|s| s.chars().take(12).collect())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload in a process of its own, so each gets its own
/// thread pool and peak-RSS reading.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating ndbench: {e}"))?;
    let mut code = 0;
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        let status = cmd.status().map_err(|e| format!("running {name}: {e}"))?;
        if !status.success() {
            code = code.max(status.code().unwrap_or(1));
        }
    }
    Ok(code)
}

fn run_one(spec: &Spec, args: &Args) -> Result<i32, String> {
    let threads = ndsnn_tensor::parallel::worker_threads(usize::MAX);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = commit();
    println!(
        "ndbench workload={} seed={} seconds={} trace={} commit={commit} threads={threads} \
         host_cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = workload::run(
        &args.workload,
        args.seed,
        Scale::full(args.seconds),
        &mut tracer,
    )?;
    if !args.trace {
        outcome
            .metrics
            .insert("peak_rss_mb", workload::peak_rss_mb()?);
    }

    // A traced run reports every per-layer metric; layers the workload
    // never enters read 0. An untraced run must produce every end-to-end
    // metric itself.
    let table = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut values = Vec::with_capacity(table.len());
    for m in table {
        let v = match outcome.metrics.remove(m.name.as_str()) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload {} produced no {}", args.workload, m.name)),
        };
        values.push((m, v));
    }
    if let Some(extra) = outcome.metrics.keys().next() {
        return Err(format!("metric {extra} is not listed in BENCHMARK.json"));
    }

    for line in tracer.summary().iter().chain(&outcome.checks.lines()) {
        println!("{line}");
    }
    let correct = outcome.checks.all_passed() && outcome.failed == 0;
    let valid = outcome.invalid.is_none();
    if let Some(why) = &outcome.invalid {
        println!("invalid run: {why}");
    }
    println!(
        "reps={} attempted={} failed={} correct={correct} valid={valid}",
        outcome.reps, outcome.attempted, outcome.failed
    );
    for (m, v) in &values {
        println!("metric {:<28} {:>16.6} {}", m.name, v, m.unit);
    }

    let metrics = |f: &dyn Fn(&spec::Metric, f64) -> String| {
        values
            .iter()
            .map(|(m, v)| format!("{}: {}", json::string(&m.name), f(m, *v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \
             \"threads\": {threads}, \"host_cores\": {cores}, \"reps\": {}, \"attempted\": {}, \
             \"failed\": {}, \"correct\": {correct}, \"valid\": {valid}, \"metrics\": {{{}}}}}\n",
            json::string(&args.workload),
            args.seed,
            json::number(args.seconds),
            u8::from(args.trace),
            json::string(&commit),
            outcome.reps,
            outcome.attempted,
            outcome.failed,
            metrics(&|_, v| json::number(v)),
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics(&|m, v| format!(
            "{{\"value\": {}, \"unit\": {}}}",
            json::number(v),
            json::string(&m.unit)
        )),
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let result = Spec::load().and_then(|spec| {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match parse(&argv, spec.run_seconds)? {
            Cmd::Compare(parent, change) => Ok(i32::from(compare::run(&spec, &parent, &change)?)),
            Cmd::Run(args) if args.workload == "all" => run_all(&args),
            Cmd::Run(args) => run_one(&spec, &args),
        }
    });
    std::process::exit(match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ndbench: {e}");
            2
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_long_and_the_short_forms() {
        let Cmd::Run(a) = parse(
            &argv("--workload serve_busy --seed 9 --seconds 3.5 --trace 1"),
            16.0,
        )
        .unwrap() else {
            panic!("not a run")
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_busy", 9, 3.5, true)
        );
        let Cmd::Run(a) = parse(&argv("--trace --workload all --out r.jsonl"), 16.0).unwrap()
        else {
            panic!("not a run")
        };
        assert_eq!((a.seed, a.seconds, a.trace), (1, 16.0, true));
        assert_eq!(a.out.as_deref(), Some("r.jsonl"));
        assert!(matches!(
            parse(&argv("--workload train_dense --trace 0"), 16.0),
            Ok(Cmd::Run(Args { trace: false, .. }))
        ));
        assert_eq!(
            parse(&argv("compare a b"), 16.0).unwrap(),
            Cmd::Compare("a".into(), "b".into())
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload train_dense --seed x",
            "--workload train_dense --seconds 0",
            "--workload train_dense --bogus",
            "--workload",
            "compare a",
        ] {
            assert!(parse(&argv(bad), 16.0).is_err(), "{bad:?} accepted");
        }
    }
}
