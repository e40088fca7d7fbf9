//! The metric catalogue — the names, units and directions that
//! `BENCHMARK.json` lists — and the JSON a run prints.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// End-to-end only: the share of the median by which the metric may
    /// worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Every workload reports every one of these from the untraced run.
/// Apart from `setup_s`, which the contract requires in seconds, the
/// timed ones are ratios paired inside a repetition: the host's speed,
/// which drifts by tens of percent on the reference host, cancels.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("speedup_vs_seq", "ratio", true, 0.25),
    e2e("cpu_vs_seq", "ratio", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
];

/// Every workload reports every one of these from the traced run; a
/// layer the workload does not touch reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // what a user sees, in absolute units: they move with the host's
    // speed, so they are reported here, without a bound (see README)
    layer("throughput_ops_s", "1/s", true),
    layer("latency_p50_us", "us", false),
    layer("cpu_per_op_us", "us", false),
    // hood::join + hood::job
    layer("join.fork_ns", "ns", false),
    layer("join.forks", "count", true),
    layer("job.spawn_call_ns", "ns", false),
    // abp-deque
    layer("deque.push_pop_ns", "ns", false),
    layer("deque.steal_ns", "ns", false),
    layer("deque.steal_contended_ns", "ns", false),
    layer("deque.steal_batch_ns_per_task", "ns", false),
    layer("deque.steal_attempts", "count", false),
    layer("deque.steals", "count", false),
    layer("deque.aborts", "count", false),
    layer("deque.steal_hit_ratio", "ratio", true),
    layer("deque.steals_per_kop", "ratio", false),
    // abp-core
    layer("core.yields_per_op", "ratio", false),
    layer("core.failed_scans_per_steal", "ratio", false),
    layer("core.attempts_per_op", "ratio", false),
    // hood::injector
    layer("injector.batch_submit_ns_per_job", "ns", false),
    layer("injector.injects", "count", false),
    layer("injector.backlog_max", "count", false),
    layer("injector.polls", "count", false),
    layer("injector.hits", "count", false),
    layer("injector.hit_ratio", "ratio", true),
    layer("injector.contention", "count", false),
    layer("injector.empty_fast", "count", false),
    layer("injector.queue_wait_p50_ns", "ns", false),
    // hood::sleep
    layer("sleep.cold_roundtrip_us", "us", false),
    layer("sleep.parks", "count", false),
    layer("sleep.wakes_sent", "count", false),
    layer("sleep.wakes_spurious", "count", false),
    layer("sleep.wake_useful_ratio", "ratio", true),
    layer("sleep.unpark_to_work_p50_ns", "ns", false),
    // hood::par + hood::scope
    layer("par.splits", "count", false),
    layer("par.seq_runs", "count", false),
    layer("par.split_ratio", "ratio", false),
    layer("par.sort_elems_per_s", "1/s", true),
    layer("par.reduce_elems_per_s", "1/s", true),
    layer("scope.spawn_ns", "ns", false),
    // hood::pool
    layer("pool.new_ms", "ms", false),
    layer("pool.shutdown_ms", "ms", false),
    layer("pool.jobs", "count", false),
    layer("pool.worker_busy_share", "ratio", true),
    // abp-sim (+ abp-kernel, abp-dag)
    layer("sim.rounds_per_s", "1/s", true),
    layer("sim.steal_attempts", "count", false),
    layer("sim.throws", "count", false),
    layer("sim.rounds", "count", false),
    layer("dag.gen_ms", "ms", false),
    // abp-telemetry
    layer("telemetry.overhead_ratio", "ratio", false),
    layer("telemetry.events_dropped", "count", false),
    // the generator (the benchmark itself)
    layer("gen.late_p99_us", "us", false),
    layer("gen.achieved_rate_ratio", "ratio", true),
    layer("serve.max_rate_ok_rps", "1/s", true),
    // demoted from end-to-end (see README): defined on one workload kind
    layer("serve.latency_p99_us", "us", false),
    layer("multiprog.oversub_slowdown", "ratio", false),
    // the serve_* span budget
    layer("serve.span_submit_p50_us", "us", false),
    layer("serve.span_queue_wait_p50_us", "us", false),
    layer("serve.span_run_p50_us", "us", false),
];

/// What one run of one workload found.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Activity and validity guards that did not hold.
    pub invalid: Vec<String>,
    pub reps: usize,
    pub metrics: BTreeMap<&'static str, Summary>,
}

/// A float as JSON: every digit as measured, and never `NaN`/`inf`,
/// which JSON cannot carry.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

impl Outcome {
    fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// The value of a metric of this run's catalogue. An end-to-end
    /// metric must have been measured; an untouched layer reads 0.
    fn value(&self, def: &MetricDef) -> Summary {
        match self.metrics.get(def.name) {
            Some(s) => *s,
            None if self.traced => Summary::single(0.0),
            None => panic!(
                "{}: end-to-end metric {} was not measured",
                self.workload, def.name
            ),
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in self.catalogue().iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                def.name,
                num(self.value(def).median),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The detail line printed before the result: fingerprint, guards,
    /// and quartiles and sample count beside every metric.
    pub fn detail_json(&self, fingerprint: &str) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"traced\": {}, \"fingerprint\": {{{}}}, \"repetitions\": {}, \
             \"failed_share\": {}, \"invalid\": [",
            self.workload,
            self.traced,
            fingerprint,
            self.reps,
            num(self.failed as f64 / self.attempted.max(1) as f64)
        );
        for (i, why) in self.invalid.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\"",
                if i == 0 { "" } else { ", " },
                abp_telemetry::json::escape(why)
            );
        }
        // Everything measured, not only this run's catalogue: the
        // untraced run's detail carries the absolute numbers too.
        let members: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|def| {
                let s = self.metrics.get(def.name)?;
                Some(format!(
                    "\"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\", \
                     \"better\": \"{}\"}}",
                    def.name,
                    num(s.median),
                    num(s.q1),
                    num(s.q3),
                    s.n,
                    def.unit,
                    if def.higher { "higher" } else { "lower" }
                ))
            })
            .collect();
        let _ = write!(out, "], \"metrics\": {{{}", members.join(", "));
        out.push_str("}, \"claim\": null}");
        out
    }
}
