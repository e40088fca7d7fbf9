//! The open-loop generator, shared by `serve_trickle`, `serve_steady` and
//! the rate ladder: seeded exponential gaps, latency counted from the
//! instant a request was *due* (so a stall is charged to every request
//! it delays), a lateness record, backlog sampling, and the
//! achieved-rate validity check.
//!
//! The generator waits for a due time by `yield_now`, never by sleeping
//! and never by a bare spin. A generator that slept through the longer
//! gaps made `serve_trickle`'s latency bimodal from run to run on the
//! reference host (a 2-processor VM): where the timer woke the generator
//! decided whether the worker it then woke shared its processor (≈15 µs)
//! or had to be reached on a halted one (≈45 µs), and the placement
//! stuck for a whole run. A generator that stays runnable keeps its
//! processor, so the woken worker is always reached on another one. The
//! CPU time the generator burns this way is taken out of
//! `cpu_per_op_us`.

use abp_dag::DetRng;
use hood::ThreadPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A run whose generator offered less than this share of the target
/// rate did not measure the target rate and is invalid.
pub const MIN_ACHIEVED_RATE: f64 = 0.98;

/// Requests between two samples of `injector_backlog()`.
const BACKLOG_EVERY: usize = 32;
/// How long a window waits for its last requests before calling them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Poisson arrivals: `n` due times in ns from the window's start, with
/// exponential gaps of mean `1 / rate_per_s`.
pub fn poisson_due_ns(rng: &mut DetRng, rate_per_s: f64, n: usize) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // unit_f64 is in [0, 1): 1 - u is in (0, 1], so ln is finite.
            t += -(1.0 - rng.unit_f64()).ln() * mean_gap_ns;
            t as u64
        })
        .collect()
}

/// The most requests one window may hold.
pub const MAX_WINDOW: usize = 32_000;

/// Where a request's closure leaves its timestamps and result. Times
/// are ns from the window's start, offset by one so that 0 means "not
/// yet".
struct Slot {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    result: AtomicU64,
}

/// The slots windows use, one after the other. A static, so that a job
/// holds a plain `&'static` to its slot: a reference count shared by a
/// window's jobs would put two contended atomic updates into every
/// request the benchmark times.
static SLOTS: [Slot; MAX_WINDOW] = [const {
    Slot {
        start_ns: AtomicU64::new(0),
        end_ns: AtomicU64::new(0),
        result: AtomicU64::new(0),
    }
}; MAX_WINDOW];

/// One request as the benchmark saw it, all in ns from the window's
/// start. `end_ns == 0`: the request never completed.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub due_ns: u64,
    pub send_begin_ns: u64,
    pub send_done_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub result: u64,
}

impl Request {
    pub fn completed(&self) -> bool {
        self.end_ns != 0
    }
    /// Due → end of the closure.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.due_ns)
    }
    /// How late the generator sent it.
    pub fn late_ns(&self) -> u64 {
        self.send_begin_ns.saturating_sub(self.due_ns)
    }
}

pub struct Window {
    pub requests: Vec<Request>,
    /// Instant the window's clock started (for placing spans).
    pub epoch: Instant,
    /// First due time → last closure end.
    pub wall_s: f64,
    pub backlog_max: usize,
    /// First due time → last due time, and first send → last send.
    pub scheduled_s: f64,
    pub sent_s: f64,
}

impl Window {
    /// Rate at which requests were actually sent ÷ the scheduled rate.
    pub fn achieved_rate_ratio(&self) -> f64 {
        self.scheduled_s / self.sent_s
    }
}

/// What a window's requests are sent to.
pub trait Server {
    fn submit(&self, job: impl FnOnce() + Send + 'static);
    /// Requests sent and not yet taken up.
    fn backlog(&self) -> usize;
}

impl Server for ThreadPool {
    fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.spawn(job);
    }
    fn backlog(&self) -> usize {
        self.injector_backlog()
    }
}

/// Serving without the runtime: one thread that blocks on a channel and
/// runs each request in place. What it costs to reach that thread is
/// the least any runtime with sleeping workers pays on this host at
/// this moment.
pub struct BareThread {
    jobs: Option<mpsc::Sender<Box<dyn FnOnce() + Send>>>,
    thread: Option<JoinHandle<()>>,
}

impl BareThread {
    pub fn new() -> BareThread {
        let (jobs, queue) = mpsc::channel::<Box<dyn FnOnce() + Send>>();
        let thread = std::thread::spawn(move || {
            for job in queue {
                job();
            }
        });
        BareThread {
            jobs: Some(jobs),
            thread: Some(thread),
        }
    }
}

impl Server for BareThread {
    fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let jobs = self.jobs.as_ref().expect("the channel is open until drop");
        jobs.send(Box::new(job)).expect("the bare thread is alive");
    }
    fn backlog(&self) -> usize {
        0
    }
}

impl Drop for BareThread {
    fn drop(&mut self) {
        // Hanging up ends the thread's loop.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Sends request `i` to `server` at `due_ns[i]`, running `make(i)`
/// there, and waits for all of them.
pub fn run_window<J>(server: &impl Server, due_ns: &[u64], make: impl Fn(usize) -> J) -> Window
where
    J: FnOnce() -> u64 + Send + 'static,
{
    let n = due_ns.len();
    assert!(
        (2..=MAX_WINDOW).contains(&n),
        "window of {n} requests, {MAX_WINDOW} slots"
    );
    let slots = &SLOTS[..n];
    for s in slots {
        s.start_ns.store(0, Ordering::Relaxed);
        s.end_ns.store(0, Ordering::Relaxed);
    }
    let mut sent = vec![(0u64, 0u64); n];
    let mut backlog_max = 0usize;
    let epoch = Instant::now();
    let now_ns = move || epoch.elapsed().as_nanos() as u64;

    for i in 0..n {
        let due = due_ns[i];
        let send_begin = loop {
            let now = now_ns();
            if now >= due {
                break now;
            }
            std::thread::yield_now();
        };
        let body = make(i);
        let slot = &slots[i];
        server.submit(move || {
            let start = now_ns();
            let result = body();
            slot.result.store(result, Ordering::Relaxed);
            slot.start_ns.store(start + 1, Ordering::Relaxed);
            // Release: a reader that sees the end time sees the rest.
            slot.end_ns.store(now_ns() + 1, Ordering::Release);
        });
        sent[i] = (send_begin, now_ns());
        if i % BACKLOG_EVERY == 0 {
            backlog_max = backlog_max.max(server.backlog());
        }
    }

    let drain = Instant::now();
    let done = |s: &Slot| s.end_ns.load(Ordering::Acquire) != 0;
    while !slots.iter().rev().all(done) && drain.elapsed() < DRAIN_TIMEOUT {
        std::thread::sleep(Duration::from_micros(200));
    }

    let requests: Vec<Request> = (0..n)
        .map(|i| {
            let end = slots[i].end_ns.load(Ordering::Acquire);
            Request {
                due_ns: due_ns[i],
                send_begin_ns: sent[i].0,
                send_done_ns: sent[i].1,
                start_ns: slots[i].start_ns.load(Ordering::Relaxed).saturating_sub(1),
                end_ns: end.saturating_sub(1),
                result: slots[i].result.load(Ordering::Relaxed),
            }
        })
        .collect();
    let last_end = requests.iter().map(|r| r.end_ns).max().unwrap_or(0);
    Window {
        epoch,
        wall_s: last_end.saturating_sub(due_ns[0]) as f64 / 1e9,
        backlog_max,
        scheduled_s: (due_ns[n - 1] - due_ns[0]) as f64 / 1e9,
        sent_s: (sent[n - 1].0 - sent[0].0).max(1) as f64 / 1e9,
        requests,
    }
}
