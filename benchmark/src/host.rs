//! What the host tells us from outside the program: CPU time and peak
//! memory from `/proc`, and the fingerprint stamped on every output.

use std::process::Command;

/// Run time of one task in µs, from the first field of its `schedstat`
/// file (ns on a processor, kept by the scheduler, no tick rounding).
fn schedstat_us(path: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let ns: u64 = text.split_ascii_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e3)
}

/// The scheduler adds to a *running* thread's time only at its next tick
/// or switch, so the file can be 4 ms stale for the thread that reads
/// it. A `sched_yield` makes the scheduler bring the caller up to date.
/// (Workers that have just run out of work yield between steal scans,
/// so they are up to date too when the caller reads after a call.)
fn settle_own_runtime() {
    std::thread::yield_now();
}

/// CPU time of every live thread of the process, in µs. Threads that
/// have exited are not counted, so take differences only over an
/// interval in which no thread ends — the pool's workers live from
/// set-up to teardown.
pub fn process_cpu_us() -> f64 {
    settle_own_runtime();
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|entry| schedstat_us(&entry.ok()?.path().join("schedstat")))
        .sum()
}

/// CPU time the calling thread has used, in µs.
pub fn thread_cpu_us() -> f64 {
    settle_own_runtime();
    schedstat_us(std::path::Path::new("/proc/thread-self/schedstat"))
        .expect("read /proc/thread-self/schedstat (kernel without CONFIG_SCHED_INFO?)")
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("/proc/self/status has VmHWM");
    kb as f64 / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker count of the measured pool: the host's processors, but never
/// fewer than 2 (stealing needs a thief) nor more than 4 (so sizes
/// frozen on a small host still fill the run on a larger one).
pub fn worker_count() -> usize {
    nproc().clamp(2, 4)
}

/// First line a command prints, or "unknown" (no git in a bare checkout).
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host/config fingerprint as the members of a JSON object.
pub fn fingerprint_json(p: usize, seed: u64, seconds: f64) -> String {
    let cfg = hood::PoolConfig::default();
    format!(
        "\"nproc\":{},\"P\":{},\"backend\":\"{}\",\"order_profile\":\"{}\",\"sleep\":\"{:?}\",\
         \"policy\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"seed\":{},\"seconds\":{}",
        nproc(),
        p,
        cfg.backend.name(),
        std::any::type_name::<abp_deque::DefaultProtocol>(),
        cfg.sleep,
        abp_telemetry::json::escape(&cfg.policies.label()),
        abp_telemetry::json::escape(&first_line("rustc", &["-V"])),
        first_line("git", &["rev-parse", "HEAD"]),
        seed,
        seconds
    )
}
