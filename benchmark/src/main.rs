//! `hoodbench` — the one benchmark of the live `hood` runtime.
//!
//! ```text
//! hoodbench --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--quick]
//! hoodbench --all       [--seed <u64>] [--seconds <s>] [--trace 0|1] [--quick]
//! hoodbench --selfcheck [--seed <u64>] [--seconds <s>] [--quick]
//! hoodbench --quick     (= --all --quick: every workload at a tenth of its size)
//! ```
//!
//! One workload per process, against the pool as shipped
//! (`ThreadPool::new(P)`); `--all` and `--selfcheck` start one child
//! process per workload so that `peak_rss_mb` and `setup_s` mean the
//! same thing there. The last line a single-workload run prints is the
//! result object `BENCHMARK.json`'s contract names; the line before it
//! carries the fingerprint, quartiles and sample counts.

mod host;
mod openloop;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use abp_telemetry::json::{self, Json};
use report::END_TO_END;
use std::process::{Command, ExitCode};
use workloads::{fj_fine, multiprog, par_data, serve, sim_ws, Env, NAMES};

/// Seconds a run measures when `--seconds` is not given: `run_seconds`
/// of `BENCHMARK.json`. `--quick` measures for a tenth of that.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage: hoodbench (--workload <name> | --all | --selfcheck) \
[--seed <u64>] [--seconds <s>] [--trace 0|1] [--quick]\n\
workloads: fj_fine par_data serve_trickle serve_steady serve_burst multiprog sim_ws";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other} is neither 0 nor 1")),
                }
            }
            "--all" => args.all = true,
            "--selfcheck" => args.selfcheck = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes =
        usize::from(args.workload.is_some()) + usize::from(args.all) + usize::from(args.selfcheck);
    // `hoodbench --quick` alone is the smoke run: every workload, small.
    if modes == 0 && args.quick {
        args.all = true;
    } else if modes != 1 {
        return Err("give exactly one of --workload, --all, --selfcheck".to_owned());
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            DEFAULT_SECONDS / 10.0
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// Runs one workload in this process and prints its two lines.
fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let name = *NAMES
        .iter()
        .find(|n| **n == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let env = Env {
        p: host::worker_count(),
        seed: args.seed,
        quick: args.quick,
    };
    let (seconds, trace) = (args.seconds(), args.trace);
    let finished = match name {
        "fj_fine" => run::run::<fj_fine::FjFine>(name, &env, seconds, trace),
        "par_data" => run::run::<par_data::ParData>(name, &env, seconds, trace),
        "serve_trickle" => run::run::<serve::OpenLoop<false>>(name, &env, seconds, trace),
        "serve_steady" => run::run::<serve::OpenLoop<true>>(name, &env, seconds, trace),
        "serve_burst" => run::run::<serve::Burst>(name, &env, seconds, trace),
        "multiprog" => run::run::<multiprog::Multiprog>(name, &env, seconds, trace),
        "sim_ws" => run::run::<sim_ws::SimWs>(name, &env, seconds, trace),
        _ => unreachable!("NAMES and this match list the same workloads"),
    };
    if let Some(trace_json) = &finished.trace_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace_{name}.json");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace_json))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("hoodbench: trace written to {path}");
    }
    // The fingerprint starts `rustc` and `git`: only now, after the
    // measurements.
    let fingerprint = host::fingerprint_json(env.p, env.seed, seconds);
    println!("{}", finished.outcome.detail_json(&fingerprint));
    println!("{}", finished.outcome.result_json());
    Ok(())
}

/// Runs one workload in a child process of this same binary and parses
/// the result line it prints last.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{name} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name} printed nothing"))?;
    json::parse(last).map_err(|e| format!("{name}: result line does not parse: {e}"))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_correct(result: &Json) -> bool {
    matches!(result.get("correct"), Some(Json::Bool(true)))
}

/// `--all`: every workload (then again traced, under `--trace`), and a
/// summary that claims nothing.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for name in NAMES {
        let result = run_child(name, args, false)?;
        ok &= is_correct(&result);
        let values: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, metric(&result, m.name).unwrap_or(0.0)))
            .collect();
        rows.push(format!(
            "\"{name}\": {{\"correct\": {}, {}}}",
            is_correct(&result),
            values.join(", ")
        ));
        if args.trace {
            ok &= is_correct(&run_child(name, args, true)?);
        }
    }
    println!(
        "{{\"summary\": {{{}}}, \"all_correct\": {ok}, \"claim\": null}}",
        rows.join(", ")
    );
    Ok(ok)
}

/// `--selfcheck`: the same binary measured twice. Prints, per workload
/// and end-to-end metric, both values and how far the second is from
/// the first — the A/A noise the bounds have to exceed — and fails if
/// any difference is beyond its bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for name in NAMES {
            set.push(run_child(name, args, false)?);
        }
        sets.push(set);
    }
    for (i, name) in NAMES.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        ok &= is_correct(a) && is_correct(b);
        for m in END_TO_END {
            let (x, y) = (
                metric(a, m.name).unwrap_or(0.0),
                metric(b, m.name).unwrap_or(0.0),
            );
            let diff = if x == 0.0 {
                0.0
            } else {
                (y - x).abs() / x.abs()
            };
            let within = diff <= m.bound;
            ok &= within;
            rows.push(format!(
                "{{\"workload\": \"{name}\", \"metric\": \"{}\", \"first\": {x}, \"second\": {y}, \
                 \"difference\": {diff}, \"bound\": {}, \"within\": {within}}}",
                m.name, m.bound
            ));
        }
    }
    println!(
        "{{\"selfcheck\": [\n{}\n], \"all_within\": {ok}, \"claim\": null}}",
        rows.join(",\n")
    );
    Ok(ok)
}

fn main() -> ExitCode {
    // The measured pool is the shipped default, whatever CI matrix
    // variable the caller's environment carries. No thread exists yet.
    std::env::remove_var("HOOD_BACKEND");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hoodbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = if let Some(name) = &args.workload {
        run_one(name, &args).map(|()| true)
    } else if args.all {
        run_all(&args)
    } else {
        selfcheck(&args)
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hoodbench: {e}");
            ExitCode::from(2)
        }
    }
}
