//! The three request-serving workloads, over one request mix: 90 % small
//! requests (≈5 µs of sequential work) and 10 % large ones (a fork-join
//! of ≈150 µs), submitted from outside the pool.
//!
//! * `serve_trickle` — open loop at 2 000 req/s: workers park between
//!   arrivals, so latency is the `hood::sleep` wake path, an injector
//!   poll and a `HeapJob` allocation. What it costs the host to wake an
//!   idle processor is most of that latency and changes sixfold with what
//!   ran before, so each repetition first sends part of a window to one
//!   bare thread blocked on a channel and compares with that.
//! * `serve_steady` — the same generator and mix at a rate that keeps
//!   the workers hot, so the sleep path is bypassed and injector
//!   submit/poll and steals of the large requests' subtasks dominate.
//! * `serve_burst` — closed loop: bursts of 1 000 small jobs through
//!   `spawn_batch`, wait, repeat. Saturation capacity.

use super::{mix, new_pool, shutdown, Counters, Env, Rep, SetupTimes, Workload};
use crate::host::{process_cpu_us, thread_cpu_us};
use crate::openloop::{
    self, poisson_due_ns, BareThread, Server, Window, MAX_WINDOW, MIN_ACHIEVED_RATE,
};
use crate::spans::Spans;
use crate::stats::{median, quantile};
use abp_dag::DetRng;
use hood::{PoolReport, ThreadPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Iterations of the mixing loop: a small request is ≈5 µs, a large one
/// 30 times that, forked down to 16 leaves.
const SMALL_ITERS: u64 = 3_000;
const LARGE_ITERS: u64 = 30 * SMALL_ITERS;
const LARGE_GRAIN: u64 = LARGE_ITERS / 16;
/// One request in ten is large.
const LARGE_ONE_IN: u64 = 10;
/// Distinct request payloads; the expected output of each is computed
/// once at set-up, so every request of a run is checked.
const PAYLOADS: usize = 64;

const TRICKLE_RATE: f64 = 2_000.0;
/// Frozen on the reference host (2 processors) at ≈60 % of the highest
/// ladder rate the mix sustains there; see the README.
const STEADY_RATE: f64 = 15_000.0;
/// An open-loop repetition is this long at the workload's rate.
const WINDOW_S: f64 = 1.0;
/// `serve_trickle` sends this share of a window to the bare thread first.
const BARE_WINDOW_SHARE: f64 = 0.25;

/// The rate ladder of the traced run: ×2 rungs, each this long, passed
/// while p99 stays within the limit.
const LADDER_RATES: [f64; 6] = [2_500.0, 5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0];
const LADDER_RUNG_S: f64 = 0.4;
const LADDER_P99_LIMIT_US: f64 = 2_000.0;
const _: () = assert!((LADDER_RATES[5] * LADDER_RUNG_S) as usize <= MAX_WINDOW);
const _: () = assert!((STEADY_RATE * WINDOW_S) as usize <= MAX_WINDOW);

const BURST_JOBS: usize = 1_000;
const BURSTS_PER_REP: usize = 40;

fn mix_range(seed: u64, lo: u64, hi: u64) -> u64 {
    (lo..hi).fold(0u64, |acc, i| acc.wrapping_add(mix(seed.wrapping_add(i))))
}

fn small(seed: u64) -> u64 {
    mix_range(black_box(seed), 0, SMALL_ITERS)
}

fn large_join(seed: u64, lo: u64, hi: u64) -> u64 {
    if hi - lo <= LARGE_GRAIN {
        return mix_range(seed, lo, hi);
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = hood::join(|| large_join(seed, lo, mid), || large_join(seed, mid, hi));
    a.wrapping_add(b)
}

fn large(seed: u64) -> u64 {
    large_join(black_box(seed), 0, LARGE_ITERS)
}

/// The payload seeds of a run — its inputs — and what each must produce,
/// worked out at set-up on the calling thread.
struct Mix {
    seeds: [u64; PAYLOADS],
    want_small: [u64; PAYLOADS],
    want_large: [u64; PAYLOADS],
}

impl Mix {
    fn new(rng: &mut DetRng) -> Mix {
        let seeds: [u64; PAYLOADS] = std::array::from_fn(|_| rng.next_u64());
        Mix {
            seeds,
            want_small: seeds.map(small),
            want_large: seeds.map(large),
        }
    }

    /// How long a small and a large request take inline on the calling
    /// thread, in ns: the "without the runtime" time of a repetition,
    /// measured in that repetition. Outside a pool `join` runs both
    /// sides in place, so `large` is sequential here.
    fn inline_ns(&self) -> (f64, f64) {
        let time = |f: fn(u64) -> u64, every: usize| {
            let ns: Vec<f64> = (0..PAYLOADS)
                .step_by(every)
                .map(|k| {
                    let t = Instant::now();
                    black_box(f(self.seeds[k]));
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            median(&ns)
        };
        (time(small, 1), time(large, 4))
    }

    /// One open-loop window of `n` requests at `rate` sent to `server`,
    /// with the drawn request kinds (`true` = large) and payload indices.
    fn window(
        &self,
        server: &impl Server,
        rng: &mut DetRng,
        rate: f64,
        n: usize,
    ) -> (Window, Vec<(bool, usize)>) {
        let due = poisson_due_ns(rng, rate, n);
        let what: Vec<(bool, usize)> = (0..n)
            .map(|_| (rng.below(LARGE_ONE_IN) == 0, rng.below_usize(PAYLOADS)))
            .collect();
        let seeds = self.seeds;
        let w = openloop::run_window(server, &due, |i| {
            let (is_large, k) = what[i];
            let seed = seeds[k];
            move || if is_large { large(seed) } else { small(seed) }
        });
        (w, what)
    }

    /// Requests of a window that did not complete or returned the wrong sum.
    fn wrong(&self, w: &Window, what: &[(bool, usize)]) -> u64 {
        w.requests
            .iter()
            .zip(what)
            .filter(|(r, &(is_large, k))| {
                let want = if is_large {
                    self.want_large[k]
                } else {
                    self.want_small[k]
                };
                !r.completed() || r.result != want
            })
            .count() as u64
    }
}

/// `serve_trickle` (`STEADY = false`) and `serve_steady` (`true`).
pub struct OpenLoop<const STEADY: bool> {
    pool: ThreadPool,
    /// `serve_trickle` only: what its latencies are compared with.
    bare: Option<BareThread>,
    mix: Mix,
    rng: DetRng,
    window_n: usize,
    ladder_s: f64,
    /// Over every window so far: the time the schedule spanned and the
    /// time the generator took to send it.
    scheduled_s: f64,
    sent_s: f64,
    /// Requests given span ids so far: ids are unique over a run.
    requests_traced: u64,
}

impl<const STEADY: bool> OpenLoop<STEADY> {
    const RATE: f64 = if STEADY { STEADY_RATE } else { TRICKLE_RATE };
}

impl<const STEADY: bool> Workload for OpenLoop<STEADY> {
    const OPEN_LOOP: bool = true;

    fn setup(env: &Env, telemetry: bool, times: &mut SetupTimes) -> Self {
        let pool = new_pool(env.p, telemetry, times);
        let mut rng = DetRng::new(env.seed);
        let mix = Mix::new(&mut rng);
        let window_n = env.size((Self::RATE * WINDOW_S) as usize);
        let ladder_s = if env.quick {
            LADDER_RUNG_S / 4.0
        } else {
            LADDER_RUNG_S
        };
        pool.install(|| ());
        OpenLoop {
            pool,
            bare: (!STEADY).then(BareThread::new),
            mix,
            rng,
            window_n,
            ladder_s,
            scheduled_s: 0.0,
            sent_s: 0.0,
            requests_traced: 0,
        }
    }

    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let (small_inline_ns, large_inline_ns) = self.mix.inline_ns();
        // What a request's latency is compared with: its inline time, or
        // on `serve_trickle` the latency of its kind on the bare thread
        // (the inline time still, should a short window draw no large one).
        let (mut small_ref_ns, mut large_ref_ns) = (small_inline_ns, large_inline_ns);
        let (mut bare_attempted, mut bare_failed) = (0, 0);
        if let Some(bare) = &self.bare {
            let n = (self.window_n as f64 * BARE_WINDOW_SHARE) as usize;
            let (w, what) = self.mix.window(bare, &mut self.rng, Self::RATE, n);
            bare_attempted = n as u64;
            bare_failed = self.mix.wrong(&w, &what);
            for (large, ref_ns) in [(false, &mut small_ref_ns), (true, &mut large_ref_ns)] {
                let ns: Vec<f64> = (w.requests.iter().zip(&what))
                    .filter(|(r, &(is_large, _))| is_large == large && r.completed())
                    .map(|(r, _)| r.latency_ns() as f64)
                    .collect();
                if !ns.is_empty() {
                    *ref_ns = median(&ns);
                }
            }
        }

        let (cpu0, gen0) = (process_cpu_us(), thread_cpu_us());
        let (w, what) = self
            .mix
            .window(&self.pool, &mut self.rng, Self::RATE, self.window_n);
        self.scheduled_s += w.scheduled_s;
        self.sent_s += w.sent_s;
        let cpu_us = (process_cpu_us() - cpu0) - (thread_cpu_us() - gen0);

        let failed = self.mix.wrong(&w, &what) + bare_failed;
        let done: Vec<(&openloop::Request, bool)> = w
            .requests
            .iter()
            .zip(&what)
            .filter(|(r, _)| r.completed())
            .map(|(r, &(is_large, _))| (r, is_large))
            .collect();
        let us = |ns: u64| ns as f64 / 1e3;
        let latency_us: Vec<f64> = done.iter().map(|(r, _)| us(r.latency_ns())).collect();
        let speedup: Vec<f64> = done
            .iter()
            .map(|&(r, is_large)| {
                let ref_ns = if is_large { large_ref_ns } else { small_ref_ns };
                ref_ns / r.latency_ns().max(1) as f64
            })
            .collect();
        let late_us: Vec<f64> = w.requests.iter().map(|r| us(r.late_ns())).collect();
        let larges = what.iter().filter(|&&(is_large, _)| is_large).count();
        let seq_ns =
            larges as f64 * large_inline_ns + (what.len() - larges) as f64 * small_inline_ns;

        // The span budget. A request's latency is due → end. Its blocking
        // path is `queue_wait` (due → closure start) then `run`; the
        // `submit` span (the `spawn` call) is a child of `queue_wait`, so
        // the part of it before the closure started is taken out of
        // `queue_wait`'s self time. The three self times sum to the
        // latency exactly.
        let (mut submit, mut queue, mut run) = (vec![], vec![], vec![]);
        let base = spans.ns_of(w.epoch);
        for (id, (r, _)) in done.iter().enumerate() {
            let submit_self = r
                .send_done_ns
                .min(r.start_ns)
                .saturating_sub(r.send_begin_ns);
            let queue_self = (r.start_ns - r.due_ns.min(r.start_ns)).saturating_sub(submit_self);
            let run_self = r.end_ns - r.start_ns;
            submit.push(us(submit_self));
            queue.push(us(queue_self));
            run.push(us(run_self));
            let id = self.requests_traced + id as u64 + 1;
            let at = |ns: u64| base + ns;
            let req = spans.record("request", 0, id, at(r.due_ns), at(r.end_ns));
            let wait = spans.record("queue_wait", req, id, at(r.due_ns), at(r.start_ns));
            spans.record("submit", wait, id, at(r.send_begin_ns), at(r.send_done_ns));
            spans.record("run", req, id, at(r.start_ns), at(r.end_ns));
        }

        self.requests_traced += done.len() as u64;

        Rep {
            pool_s: w.wall_s,
            seq_s: seq_ns / 1e9,
            speedup: median(&speedup),
            ops: done.len() as u64,
            submitted: w.requests.len() as u64,
            latency_us: median(&latency_us),
            cpu_us,
            attempted: w.requests.len() as u64 + bare_attempted,
            failed,
            layer: vec![
                ("serve.latency_p99_us", quantile(&latency_us, 0.99)),
                ("gen.late_p99_us", quantile(&late_us, 0.99)),
                ("gen.achieved_rate_ratio", w.achieved_rate_ratio()),
                ("injector.backlog_max", w.backlog_max as f64),
                ("serve.span_submit_p50_us", median(&submit)),
                ("serve.span_queue_wait_p50_us", median(&queue)),
                ("serve.span_run_p50_us", median(&run)),
            ],
        }
    }

    fn pool(&self) -> Option<&ThreadPool> {
        Some(&self.pool)
    }

    fn guards(&self, delta: &Counters, _ops: u64, submitted: u64) -> Vec<String> {
        let mut bad = Vec::new();
        if delta.stats.injects != submitted {
            bad.push(format!(
                "serve: injector.injects {} != requests {}",
                delta.stats.injects, submitted
            ));
        }
        // One stalled window does not spoil a run; a generator that falls
        // behind over the whole run did not offer the rate it claims.
        let achieved = self.scheduled_s / self.sent_s;
        if achieved < MIN_ACHIEVED_RATE {
            bad.push(format!(
                "serve: generator offered {achieved:.3} of the target rate (< {MIN_ACHIEVED_RATE})"
            ));
        }
        if !STEADY && delta.stats.parks == 0 {
            bad.push("serve_trickle: no worker parked between arrivals".to_owned());
        }
        bad
    }

    /// The rate ladder: the highest rung whose requests all complete
    /// with p99 within the limit, the generator keeping its schedule. A
    /// backlog that grows through a rung pushes its p99 past the limit
    /// within the rung. Every rung is run: on a host where one stall
    /// fails a 0.4 s rung, stopping at the first failure reads 0.
    fn diagnostics(&mut self) -> Vec<(&'static str, f64)> {
        let mut best = 0.0;
        for rate in LADDER_RATES {
            let n = (rate * self.ladder_s) as usize;
            let (w, what) = self.mix.window(&self.pool, &mut self.rng, rate, n);
            let lat: Vec<f64> = w
                .requests
                .iter()
                .map(|r| r.latency_ns() as f64 / 1e3)
                .collect();
            let ok = self.mix.wrong(&w, &what) == 0
                && w.achieved_rate_ratio() >= MIN_ACHIEVED_RATE
                && quantile(&lat, 0.99) <= LADDER_P99_LIMIT_US;
            if ok {
                best = rate;
            }
        }
        vec![("serve.max_rate_ok_rps", best)]
    }

    fn teardown(self) -> Option<(PoolReport, f64)> {
        Some(shutdown(self.pool))
    }
}

/// What the jobs of a burst share with the client that waits for them.
struct BurstState {
    remaining: AtomicUsize,
    results: Vec<AtomicU64>,
    client: Thread,
}

pub struct Burst {
    pool: ThreadPool,
    mix: Mix,
    rng: DetRng,
    /// Leaked, so that a job holds a plain `&'static` to it, for the
    /// reason `openloop::SLOTS` gives.
    state: &'static BurstState,
    jobs: usize,
}

impl Workload for Burst {
    fn setup(env: &Env, telemetry: bool, times: &mut SetupTimes) -> Self {
        let pool = new_pool(env.p, telemetry, times);
        let mut rng = DetRng::new(env.seed);
        let mix = Mix::new(&mut rng);
        let jobs = env.size(BURST_JOBS);
        let state = Box::leak(Box::new(BurstState {
            remaining: AtomicUsize::new(0),
            results: (0..jobs).map(|_| AtomicU64::new(0)).collect(),
            client: std::thread::current(),
        }));
        pool.install(|| ());
        Burst {
            pool,
            mix,
            rng,
            state,
            jobs,
        }
    }

    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let state = self.state;
        let n = self.jobs;
        let mut rep = Rep::default();
        let (mut burst_us, mut seq_s) = (Vec::new(), 0.0);
        let cpu0 = process_cpu_us();
        for b in 0..BURSTS_PER_REP {
            let payload: Vec<usize> = (0..n).map(|_| self.rng.below_usize(PAYLOADS)).collect();
            let seeds = self.mix.seeds;

            // The same burst inline, once per repetition, outside the
            // CPU and wall time charged to the pool.
            if b == 0 {
                let cpu_pause = process_cpu_us();
                let t = Instant::now();
                for &k in &payload {
                    black_box(small(seeds[k]));
                }
                seq_s = t.elapsed().as_secs_f64();
                rep.cpu_us -= process_cpu_us() - cpu_pause;
            }

            state.remaining.store(n, Ordering::Release);
            let t = Instant::now();
            spans.around("spawn_batch", b as u64 + 1, || {
                self.pool
                    .spawn_batch(payload.iter().enumerate().map(|(i, &k)| {
                        let seed = seeds[k];
                        move || {
                            state.results[i].store(small(seed), Ordering::Relaxed);
                            // AcqRel: the client that sees 0 sees every result.
                            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                state.client.unpark();
                            }
                        }
                    }))
            });
            while state.remaining.load(Ordering::Acquire) != 0 {
                std::thread::park_timeout(Duration::from_millis(50));
            }
            let dt = t.elapsed().as_secs_f64();
            burst_us.push(dt * 1e6);
            rep.pool_s += dt;
            rep.attempted += n as u64;
            rep.failed += payload
                .iter()
                .enumerate()
                .filter(|&(i, &k)| {
                    state.results[i].load(Ordering::Relaxed) != self.mix.want_small[k]
                })
                .count() as u64;
        }
        rep.cpu_us += process_cpu_us() - cpu0;
        rep.ops = (n * BURSTS_PER_REP) as u64;
        rep.submitted = rep.ops;
        rep.latency_us = median(&burst_us);
        rep.seq_s = seq_s * BURSTS_PER_REP as f64;
        rep.speedup = seq_s / (rep.latency_us / 1e6);
        rep
    }

    fn pool(&self) -> Option<&ThreadPool> {
        Some(&self.pool)
    }

    fn guards(&self, delta: &Counters, _ops: u64, submitted: u64) -> Vec<String> {
        let mut bad = Vec::new();
        if delta.stats.injects != submitted {
            bad.push(format!(
                "serve_burst: injector.injects {} != requests {}",
                delta.stats.injects, submitted
            ));
        }
        bad
    }

    fn teardown(self) -> Option<(PoolReport, f64)> {
        Some(shutdown(self.pool))
    }
}
