//! Every workload at a tenth of its size, untraced and traced: the
//! result line parses with the in-repo JSON parser, carries exactly the
//! contract's keys, and names exactly the metrics `BENCHMARK.json` lists,
//! with their units — so the catalogue in `src/report.rs` and the
//! contract file cannot drift apart.

use abp_telemetry::json::{parse, Json};
use std::process::Command;

const MAX_WORKLOADS: usize = 8;
const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

fn members(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(name, unit)` of each entry of a metric list of the contract.
fn listed(contract: &Json, list: &str) -> Vec<(String, String)> {
    contract
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_hoodbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--quick",
            "--trace",
            trace,
        ])
        .env("HOOD_BACKEND", "locking") // must be scrubbed, not obeyed
        .output()
        .expect("start hoodbench");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {:?}",
        out
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = parse(lines.next().expect("a result line")).expect("result line parses");
    let detail = parse(lines.next().expect("a detail line")).expect("detail line parses");
    let fingerprint = detail.get("fingerprint").expect("detail has a fingerprint");
    assert_eq!(
        fingerprint.get("backend").and_then(Json::as_str),
        Some("abp"),
        "HOOD_BACKEND was not scrubbed"
    );
    assert_eq!(detail.get("claim"), Some(&Json::Null));
    result
}

#[test]
fn contract_stays_within_its_caps() {
    let c = contract();
    let workloads = c
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert!((2..=MAX_WORKLOADS).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        [
            "fj_fine",
            "par_data",
            "serve_trickle",
            "serve_steady",
            "serve_burst",
            "multiprog",
            "sim_ws"
        ]
    );
    let e2e = listed(&c, "end_to_end");
    let layers = listed(&c, "per_layer");
    assert!((1..=MAX_END_TO_END).contains(&e2e.len()));
    assert!((1..=MAX_PER_LAYER).contains(&layers.len()));
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let mut all: Vec<&str> = names.clone();
    all.extend(e2e.iter().chain(&layers).map(|(n, _)| n.as_str()));
    for n in &all {
        assert!(name_ok(n), "bad name {n:?}");
    }
    let distinct: std::collections::BTreeSet<&&str> = all.iter().collect();
    assert_eq!(distinct.len(), all.len(), "a name is used twice");
}

#[test]
fn every_workload_prints_the_contracts_metrics() {
    let c = contract();
    for w in c
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
    {
        let workload = w.get("name").and_then(Json::as_str).expect("name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let keys: Vec<&str> = members(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} --trace {trace}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let printed: Vec<(String, String)> = members(result.get("metrics").expect("metrics"))
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    if trace == "0" {
                        assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
                    }
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            assert_eq!(printed, listed(&c, list), "{workload} --trace {trace}");
        }
    }
}
