//! The thread pool: `P` worker threads ("processes" in the paper's
//! vocabulary), one deque each, randomized stealing, and yields
//! between steal attempts.
//!
//! The scheduling loop follows Figure 3: a worker executes its assigned
//! job; completed jobs are replaced by popping the bottom of its own
//! deque; an empty deque turns the worker into a thief that yields,
//! picks a victim, and tries `popTop` on the victim's deque. The pool
//! runs that policy and no other: every scan starts with a yield
//! (line 15) and visits all `P − 1` other workers from a uniformly random
//! start ([`abp_core::UniformVictim`], line 16), then polls the injector
//! when it holds work. The one scan that skips the yield is a *drain*'s:
//! the worker's last attempt was an injector poll that returned a job and
//! the backlog gauge still reads non-zero, so it takes a batch apart
//! without a `sched_yield` per job; any miss re-arms the yield
//! (`WorkerCtx::find_distant_work`). Hood's other engineering addition
//! is the park, so an idle pool does not burn CPU. When to park is
//! measured per worker (the crate-private `idle` module): a worker out of
//! work parks after a full spin of 64 failed hunts while most of its
//! recent idle episodes ended within one, and after its first failed
//! hunt otherwise. Parking goes through the [`crate::sleep`] eventcount,
//! whose announce/re-scan/commit protocol closes the missed-wakeup race
//! by construction — so the park is *untimed* and producers wake exactly
//! `min(jobs, sleepers)` workers instead of the whole pool. The one
//! choice a pool still offers is the data-parallel split cadence
//! ([`PoolConfig::policies`], a [`PoolPolicy`]). All
//! inter-worker synchronization is non-blocking (the deque) except that
//! park, which never holds locks around work, so it cannot
//! reintroduce the preemption pathology the paper's non-blocking design
//! eliminates.
//!
//! # The deque
//!
//! Every worker's public deque is the non-blocking ABP deque of Figure 5
//! ([`abp_deque::Worker`] / [`abp_deque::Stealer`]), fixed-capacity
//! ([`PoolConfig::backend`]). The locking deque in `abp-deque` is an
//! ablation: the paper's "non-blocking data structures are essential"
//! claim is tested where its adversary lives, in the simulator, not
//! here. The
//! worker loop, [`WorkerCtx`] and `SharedCore` (which holds every
//! worker's stealer handle) are plain types, and code that runs *on* a
//! worker — `join`, `scope`, the latches, the data-parallel layer —
//! reaches its [`WorkerCtx`] through one thin TLS pointer and calls it
//! directly. `join`'s fast path is that one load plus the private stack
//! at a constant offset.
//!
//! # The private-first fork path
//!
//! The deque a worker owns is a [`PrivateFirst`]: pushes land on an
//! owner-private ring and cost a store, an index bump and one relaxed
//! load of the pool's [`Attention`] word; pops take from the ring
//! first. Work reaches the public deque — becomes stealable — only
//! through `WorkerCtx::feed_hunters`, while some worker of the pool is
//! out of work, so the `pushBottom` release, the `popBottom` fence and
//! the wake are paid per steal, not per fork. The invariants
//! (INV-PRIV-ORDER, INV-PRIV-REQ) and what the scheme gives up are in
//! [`crate::private`] and DESIGN.md § "Private-first fork path".
//!
//! [`ThreadPool::shutdown`] asserts the four-way accounting identity
//! `attempts == hits + aborts + empties + injects`.
//!
//! A pool can additionally record a structured event trace — spawns, job
//! spans, every steal attempt with its outcome, yields, parks — into
//! per-worker lock-free rings (see [`abp_telemetry`]). Tracing is gated
//! at run time: it is off unless [`PoolConfig::telemetry`] is `Some`, and
//! when off each instrumentation point costs one branch on an `Option`.

use crate::idle::IdleRule;
use crate::injector::Injector;
use crate::job::{Job, JobRef};
use crate::latch::LockLatch;
use crate::par::SplitKind;
use crate::private::{Attention, PrivateFirst, PrivateStack};
use crate::sleep::{Sleep, SleepKind, SleepStats};
use crate::stats::{PoolStats, WorkerStats};
use abp_core::{StealResult, UniformVictim};
use abp_dag::DetRng;
use abp_deque::{Steal, Stealer};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use abp_telemetry::{EventKind, Registry, WorkerTelemetry};
pub use abp_telemetry::{TelemetryConfig, TelemetrySnapshot};

/// The seed every pool's victim streams fork from, one per worker index.
const SEED: u64 = 0xAB9;

/// Worker thread stack size in bytes. Work stealing executes stolen jobs
/// on the thief's stack ("leapfrogging"), so deep recursive workloads
/// need headroom beyond the platform default.
const STACK_SIZE: usize = 8 * 1024 * 1024;

/// Sizing of every worker's public ABP deque.
///
/// `capacity` bounds `bot` (see [`abp_deque::new`]). A deque that is
/// full keeps further jobs on its owner's private stack — correct, just
/// not stealable until there is room. The default is far beyond any
/// depth a real computation reaches; tests shrink it to reach that
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    pub capacity: usize,
}

impl Default for Backend {
    fn default() -> Self {
        Backend { capacity: 1 << 15 }
    }
}

impl Backend {
    /// The deque's stable short label, stamped into run records.
    pub fn name(self) -> &'static str {
        "abp"
    }
}

/// The pool's scheduling policy. The steal loop is fixed to Figure 3's
/// (yield, uniform victim, `popTop`) with an untimed park when the
/// worker's measured idle rule says so (after one failed hunt or a full
/// spin of 64); what is left to choose is the data-parallel split
/// cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolPolicy {
    /// When a data-parallel range forks vs. runs sequentially, read by
    /// [`crate::par`]'s splitter.
    pub split: SplitKind,
}

impl PoolPolicy {
    /// Stable identity string stamped on telemetry snapshots and run
    /// fingerprints: `"uniform+yield+park-wake"`, with the split
    /// cadence appended when it is not the default.
    pub fn label(&self) -> String {
        let mut s = String::from("uniform+yield+park-wake");
        if self.split != SplitKind::default() {
            s.push('+');
            s.push_str(self.split.label());
        }
        s
    }
}

/// Pool construction parameters.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads (the paper's fixed process count `P`).
    pub num_procs: usize,
    /// Sizing of each worker's public ABP deque.
    pub backend: Backend,
    /// The scheduling policy: Figure 3's steal loop, plus the split
    /// cadence of the data-parallel layer.
    pub policies: PoolPolicy,
    /// The sleep/wake protocol idle workers park through — always the
    /// eventcount. A fingerprint stamp, not a choice: it stays a field
    /// so run records that format the configuration keep naming it.
    pub sleep: SleepKind,
    /// Structured tracing: `Some(config)` records events and histograms
    /// into per-worker rings; `None` (the default) records nothing and
    /// leaves only an untaken branch at each instrumentation point.
    pub telemetry: Option<TelemetryConfig>,
}

impl PoolConfig {
    /// Replaces the worker count.
    pub fn with_num_procs(mut self, num_procs: usize) -> Self {
        self.num_procs = num_procs;
        self
    }

    /// Replaces the data-parallel split cadence.
    pub fn with_split(mut self, split: SplitKind) -> Self {
        self.policies.split = split;
        self
    }

    /// Enables structured tracing with the given telemetry configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            num_procs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            backend: Backend::default(),
            policies: PoolPolicy::default(),
            sleep: SleepKind::default(),
            telemetry: None,
        }
    }
}

/// Everything workers and the pool handle share: one stealer handle per
/// worker, the injector, the sleep subsystem, the shutdown flag, the
/// per-worker stats, and (with tracing on) the telemetry registry.
pub(crate) struct SharedCore {
    num_procs: usize,
    /// Worker `i`'s `popTop` handle is `stealers[i]`.
    stealers: Vec<Stealer<usize>>,
    /// The sharded external-submission injector (the front door).
    injector: Injector,
    /// The eventcount idle workers park on; worker `i` parks as slot `i`.
    sleep: Sleep,
    shutdown: AtomicBool,
    /// The pool's split cadence, read by [`crate::par`]'s splitter.
    split: SplitKind,
    pub(crate) stats: Vec<WorkerStats>,
    /// The pool's attention word: counts the workers that are hunting
    /// for work; every push tests it.
    attention: Arc<Attention>,
    registry: Option<Arc<Registry>>,
}

impl SharedCore {
    /// Timestamp for an external submission (0 when tracing is off: the
    /// latency histogram is then skipped on the worker side). With
    /// tracing on, the stamp is clamped to at least 1ns so a submission
    /// landing exactly on the registry epoch can never be mistaken for
    /// the tracing-off sentinel (and silently dropped from the
    /// histogram).
    fn submit_ns(&self) -> u64 {
        self.registry
            .as_ref()
            .map(|r| r.now_ns().max(1))
            .unwrap_or(0)
    }

    /// Submits one external job through the sharded injector, then
    /// wakes at most one parked worker. Publish-then-notify order is
    /// what the sleep protocol requires (INV-EC-PUB): the notify's epoch
    /// bump is the barrier that makes this push visible to any worker
    /// racing into a park, so no wakeup can be missed and no park
    /// timeout is needed to cap a race. External submitters have no
    /// worker timeline, so wake events are not traced here (the counters
    /// still move).
    fn inject(&self, job: JobRef) {
        self.injector.push(job.to_word(), self.submit_ns());
        self.sleep.notify_jobs(1, |_| {});
    }

    /// Submits a batch under one shard lock, then wakes
    /// `min(batch_len, sleepers)` workers — one per job, never the herd.
    fn inject_batch(&self, words: &[usize]) {
        self.injector.push_batch(words, self.submit_ns());
        self.sleep.notify_jobs(words.len(), |_| {});
    }

    /// The registry's snapshot with the scalar counters that live with
    /// the pool stamped in: the injector's (its latency histogram is
    /// already there), and the data-parallel splitter's as named
    /// counters, so the Chrome trace carries them. The wake counters are
    /// [`SleepStats`], reported by every pool, traced or not.
    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let mut snap = self.registry.as_ref()?.snapshot();
        self.injector.stamp(&mut snap.injector);
        let stats = PoolStats::aggregate(&self.stats);
        snap.counters
            .push(("par_splits".to_string(), stats.par_splits));
        snap.counters
            .push(("par_seq_fallbacks".to_string(), stats.par_seq));
        Some(snap)
    }
}

/// Worker-thread-local context. A pointer to it lives in TLS while the
/// worker runs, so everything that runs on the worker reaches it through
/// `current_worker`.
pub struct WorkerCtx {
    index: usize,
    deque: PrivateFirst,
    core: Arc<SharedCore>,
    /// The paper's uniform victim selector and the stream it draws
    /// from, forked from the pool seed by worker index.
    victim: RefCell<UniformVictim>,
    rng: RefCell<DetRng>,
    /// Consecutive hunts that found no work; reset by any found work.
    /// Non-zero exactly while an idle episode is open.
    fails: Cell<u32>,
    /// When this worker's current idle episode began: its first failed
    /// hunt. Read only while `fails` is non-zero.
    idle_since: Cell<Instant>,
    /// When to park: the measured spin-or-park rule.
    idle: IdleRule,
    /// True while this worker's most recent attempt to find work was an
    /// injector poll that returned a job: every poll sets it to its
    /// outcome, and every scan clears it before its own poll, so a steal
    /// hit or a scan that returns nothing leaves it false. While it holds
    /// and the backlog gauge reads non-zero, the next scan skips its
    /// yield ([`WorkerCtx::find_distant_work`]).
    draining: Cell<bool>,
    /// True between returning from a wake-caused unpark and finding the
    /// first piece of work. Finding work converts it into a
    /// `hits_after_unpark`; committing back to sleep with it still set
    /// converts it into a `wakes_spurious`.
    woken_pending: Cell<bool>,
    /// Timestamp of the wake-caused unpark (0 when tracing is off),
    /// for the unpark-to-work latency histogram.
    woken_at: Cell<u64>,
    /// True from this worker's first failed pop of its own deque until
    /// its next push: while it is counted in the pool's [`Attention`]
    /// word.
    hunting: Cell<bool>,
    tele: Option<WorkerTelemetry>,
}

thread_local! {
    static CURRENT: Cell<*const WorkerCtx> = const { Cell::new(std::ptr::null()) };
}

/// The current worker context, if this thread is a pool worker.
#[inline]
pub(crate) fn current_worker<'a>() -> Option<&'a WorkerCtx> {
    // SAFETY: the pointer is set for exactly the lifetime of
    // worker_main's stack frame on this thread.
    unsafe { CURRENT.with(|c| c.get()).as_ref() }
}

impl WorkerCtx {
    /// Worker index within the pool.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Identity of the owning pool, for [`ThreadPool::install`]'s
    /// same-pool fast path and the latches' home check.
    pub(crate) fn core_ptr(&self) -> *const SharedCore {
        Arc::as_ptr(&self.core)
    }

    /// The private side of this worker's deque: what `join`'s fast path
    /// pushes to and pops from.
    #[inline]
    pub(crate) fn private(&self) -> &PrivateStack {
        self.deque.private()
    }

    fn stats(&self) -> &WorkerStats {
        &self.core.stats[self.index]
    }

    /// The pool's worker count `P`.
    pub(crate) fn num_procs(&self) -> usize {
        self.core.num_procs
    }

    /// The pool's split cadence.
    pub(crate) fn split_kind(&self) -> SplitKind {
        self.core.split
    }

    /// Relaxed-load idle gauge for the adaptive splitter — the pool's
    /// sleepers. See [`crate::sleep`]'s `sleepers_hint` for the
    /// race-tolerance argument.
    pub(crate) fn sleepers_hint(&self) -> usize {
        self.core.sleep.sleepers_hint()
    }

    /// Counts one adaptive-splitter fork.
    pub(crate) fn note_par_split(&self) {
        WorkerStats::bump(&self.stats().par_splits);
    }

    /// Counts one splittable range the splitter ran sequentially.
    pub(crate) fn note_par_seq(&self) {
        WorkerStats::bump(&self.stats().par_seq);
    }

    #[inline]
    fn tele_record(&self, kind: EventKind) {
        if let Some(t) = &self.tele {
            t.record(kind);
        }
    }

    /// Pushes the closure `f` as the newest entry of this worker's
    /// deque: by value onto the private stack
    /// ([`PrivateStack::push_inline`]), where only a raised
    /// [`Attention`] word costs more than the write and an index bump,
    /// and where it is boxed only if it is exposed or too big for a body
    /// slot.
    ///
    /// # Safety
    ///
    /// As for [`crate::job::HeapJob::into_job_ref`]: the caller keeps
    /// everything `f` borrows alive until it has run (scopes wait on
    /// their latch), and the deque runs it exactly once.
    #[inline]
    pub(crate) unsafe fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send,
    {
        if self.deque.private().push_inline(f) {
            self.after_push();
        }
    }

    /// The slow half of a push, taken when the attention word is raised:
    /// by this worker itself (the push ends its hunt), by another hunter
    /// (who must be fed), or by tracing. On a traced pool that is every
    /// push, which is how the trace still gets its one `Spawn` per push —
    /// coarse-stamped (last clock read, usually the enclosing job's
    /// `ExecStart`), so even a traced fork never touches the clock.
    #[cold]
    pub(crate) fn after_push(&self) {
        if let Some(t) = &self.tele {
            t.record_coarse(EventKind::Spawn);
        }
        let first = self.hunting.replace(false);
        if first {
            self.core.attention.stop_hunting();
        }
        self.feed_hunters(first);
    }

    /// **INV-PRIV-REQ**: a visible hunter is answered at the owner's next
    /// push or pop — by exposing the older half of the private entries
    /// and waking for them ([`WorkerCtx::notify_exposed`]). With nobody
    /// hunting nothing is exposed and nothing is synchronised; next to a
    /// parked worker a lone fork is public-and-wake, exactly the
    /// behaviour before the private stack existed.
    ///
    /// A worker *hunts* — is counted in the pool's [`Attention`] word —
    /// from the first failed pop of its own deque
    /// ([`WorkerCtx::find_distant_work`]) until its next push
    /// ([`WorkerCtx::after_push`]): for as long as it has no work of its
    /// own to offer. That covers the scans, a park, and also the stolen
    /// or polled job it runs in between when that job forks nothing —
    /// such a worker is back for more the moment the job ends, and an
    /// owner that waited to see it scanning again could already be inside
    /// a long job with its surplus unreachable.
    ///
    /// Two refinements. The public deque is only topped up to one entry
    /// per hunter: one exposure usually answers a hunter for good (it
    /// takes the oldest entry, forks, and stops hunting), so this keeps
    /// exposures in step with steals rather than with the pushes made
    /// while a hunter is on its way. And `first` — the caller's first
    /// push after running dry — is exposed whoever is or is not hunting:
    /// it is the root fork of whatever the worker has just taken up, and
    /// the push most likely to find the pool's other workers between two
    /// states, done with the previous computation and not yet counted.
    ///
    /// What is given up: entries pushed while nobody hunted stay private
    /// until their owner's next push or pop, however hungry the pool has
    /// become since — see DESIGN.md § "Private-first fork path".
    fn feed_hunters(&self, first: bool) {
        let hunters = self.core.attention.hunters() as usize;
        if first || hunters > self.deque.public_len() {
            self.notify_exposed(self.deque.expose_half());
        }
    }

    /// Producer-side wake for `n` entries just exposed on the public
    /// deque (none: nothing to do). This is the external submitters'
    /// notify — an unconditional epoch bump, then `min(n, sleepers)`
    /// targeted wakes: the bump is the store→load barrier between the
    /// exposure and the look at the sleeper count (INV-EC-PUB), so a
    /// hunter that was already committing to sleep either fails its
    /// commit or is woken, and never sleeps on exposed work.
    fn notify_exposed(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.core.sleep.notify_jobs(n, |ev| {
            self.tele_record(match ev {
                Some(target) => EventKind::WakeOne {
                    target: target as u32,
                },
                None => EventKind::WakeSkipped,
            });
        });
    }

    /// Exposes every private entry and wakes for them: for a worker
    /// about to block without touching its deque.
    pub(crate) fn expose_all(&self) {
        self.notify_exposed(self.deque.expose_all());
    }

    /// Bookkeeping for work found by `worker_main` (own pop, steal,
    /// injector): ends the idle episode, if one is open, and, if this
    /// worker was recently woken, credits the wake and records its
    /// latency.
    fn note_found_work(&self) {
        if self.fails.replace(0) > 0 {
            self.idle.episode_done(self.idle_ns());
        }
        if self.woken_pending.replace(false) {
            self.core.sleep.note_hit_after_unpark();
            if let Some(t) = &self.tele {
                let woken_at = self.woken_at.get();
                if woken_at > 0 {
                    t.unpark_to_work_ns(t.now_ns().saturating_sub(woken_at));
                }
            }
        }
    }

    /// Pops the newest entry of this worker's deque — private stack
    /// first, then `popBottom` — and feeds the pool's hunters from what
    /// is left, so an owner that has stopped forking still answers at
    /// every job boundary. (`join` reclaims its own operand straight off
    /// the private stack without this check: whatever it runs next forks,
    /// and so checks, almost at once.)
    pub(crate) fn pop(&self) -> Option<Job> {
        let job = self.deque.pop_job()?;
        self.feed_hunters(false);
        Some(job)
    }

    /// Executes `job` and maintains the job counter, the job-run-time
    /// histogram, and the `ExecStart`/`ExecEnd` trace span. Every job the
    /// scheduler runs goes through here so counts and traces agree.
    pub(crate) fn execute_job(&self, job: Job) {
        let started = self.tele.as_ref().map(|t| {
            let now = t.now_ns();
            t.record_at(now, EventKind::ExecStart);
            now
        });
        unsafe { job.execute() };
        WorkerStats::bump(&self.stats().jobs);
        if let (Some(t), Some(t0)) = (self.tele.as_ref(), started) {
            let now = t.now_ns();
            t.job_run_ns(now.saturating_sub(t0));
            t.record_at(now, EventKind::ExecEnd);
        }
    }

    /// The paper's `yield` before a steal scan (§4.4), skipped only by a
    /// drain ([`WorkerCtx::find_distant_work`]).
    fn do_yield(&self) {
        self.stats().yields.fetch_add(1, Ordering::Relaxed);
        self.tele_record(EventKind::Yield);
        std::thread::yield_now();
    }

    /// Records one completed steal attempt everywhere it is counted —
    /// stats outcome counter, telemetry event and steal-latency sample.
    /// One function so the outcome branches cannot drift apart again.
    fn note_steal(&self, victim: usize, result: StealResult, scan_start_ns: Option<u64>) {
        let stats = self.stats();
        match result {
            StealResult::Hit => stats.steals.fetch_add(1, Ordering::Relaxed),
            StealResult::Abort => stats.aborts.fetch_add(1, Ordering::Relaxed),
            StealResult::Empty => stats.empties.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(t) = self.tele.as_ref() {
            let now = t.now_ns();
            if result == StealResult::Hit {
                // Steal latency: scan start → successful grab.
                t.steal_latency_ns(now.saturating_sub(scan_start_ns.unwrap_or(now)));
            }
            t.record_at(
                now,
                EventKind::StealAttempt {
                    victim: victim as u32,
                    outcome: result,
                },
            );
        }
    }

    /// One counted, non-blocking poll of the external-submission
    /// injector. A grab counts as an `inject`; a miss (empty or
    /// contended) counts as an `empty` — either way exactly one outcome
    /// per attempt, so the accounting identity extends to the new path.
    ///
    /// A grab starts (or continues) a drain streak and a miss ends it,
    /// whichever caller polled — the scan's tail or the poll after a
    /// park — so a worker whose poll lost a shard's `try_lock` yields
    /// before its next scan: the lock may belong to a descheduled
    /// submitter.
    pub(crate) fn poll_injector(&self) -> Option<JobRef> {
        let stats = self.stats();
        stats.steal_attempts.fetch_add(1, Ordering::Relaxed);
        let polled = self.core.injector.poll(self.index);
        self.draining.set(polled.is_some());
        match polled {
            Some((word, submit_ns)) => Some(self.took_injected(word, submit_ns)),
            None => {
                stats.empties.fetch_add(1, Ordering::Relaxed);
                self.tele_record(EventKind::InjectorPoll { hit: false });
                None
            }
        }
    }

    /// The outcome half of taking a job out of the injector, by a poll
    /// or by the shutdown drain (whose caller counts the attempt): one
    /// `inject`, one `InjectorPoll { hit: true }` event and one
    /// inject-to-start latency sample, so the trace agrees with the
    /// counters whichever path took the job.
    fn took_injected(&self, word: usize, submit_ns: u64) -> JobRef {
        self.stats().injects.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tele {
            let now = t.now_ns();
            if submit_ns > 0 {
                t.inject_latency_ns(now.saturating_sub(submit_ns));
            }
            t.record_at(now, EventKind::InjectorPoll { hit: true });
        }
        JobRef::from_word(word)
    }

    /// One counted `popTop` against worker `v`.
    fn try_rob(&self, v: usize, scan_start: Option<u64>) -> Option<JobRef> {
        self.stats().steal_attempts.fetch_add(1, Ordering::Relaxed);
        let result = match self.core.stealers[v].pop_top() {
            Steal::Taken(w) => {
                self.note_steal(v, StealResult::Hit, scan_start);
                return Some(JobRef::from_word(w));
            }
            Steal::Abort => StealResult::Abort,
            Steal::Empty => StealResult::Empty,
        };
        self.note_steal(v, result, scan_start);
        None
    }

    /// One full steal scan (Figure 3, lines 15–17): a yield, then all
    /// `P − 1` other workers from a uniformly random start, then — when
    /// it holds work — the injector.
    ///
    /// The yield is skipped in one case, the drain: this worker's most
    /// recent attempt to find work was an injector poll that returned a
    /// job, and the backlog gauge still reads non-zero. A worker taking a
    /// `spawn_batch` apart one job per poll then pays no `sched_yield`
    /// per job. The yield exists so that a thief whose attempt may fail
    /// hands its processor to a process that holds work (§4.4); here the
    /// last attempt succeeded and the work is still in sight. Any miss —
    /// a poll that found the injector empty or a shard locked, or a scan
    /// that found nothing — re-arms it, so a fork-join hunt, where the
    /// injector is empty, is exactly Figure 3's.
    ///
    /// Every caller has just failed a pop of its own deque, so this is
    /// where a worker starts to count as hunting (INV-PRIV-REQ).
    pub(crate) fn find_distant_work(&self) -> Option<Job> {
        if !self.hunting.replace(true) {
            self.core.attention.start_hunting();
        }
        // The streak ends here; only this scan's poll, if it hits, can
        // start it again.
        if !(self.draining.replace(false) && self.core.injector.pending() > 0) {
            self.do_yield();
        }
        let scan_start = self.tele.as_ref().map(|t| t.now_ns());
        let n = self.core.num_procs;
        if n > 1 {
            let (mut victim, mut rng) = (self.victim.borrow_mut(), self.rng.borrow_mut());
            victim.begin_scan(n, &mut rng);
            for _ in 0..n - 1 {
                let v = victim.next_victim(self.index, n);
                if let Some(job) = self.try_rob(v, scan_start) {
                    return Some(Job::Ref(job));
                }
            }
        }
        if self.core.injector.pending() > 0 {
            return self.poll_injector().map(Job::Ref);
        }
        None
    }

    /// True if any source this worker could take work from looks
    /// non-empty: the shutdown flag (which also demands wakefulness),
    /// the injector, or any other worker's deque. Our own deque is known
    /// empty — the caller just failed a pop of both its stacks.
    ///
    /// Only *public* deques can be seen. A victim that looks empty may
    /// hold private work; the caller stays counted as hunting while it
    /// sleeps, so that victim's next push or pop exposes and wakes
    /// ([`WorkerCtx::feed_hunters`]).
    fn work_in_sight(&self) -> bool {
        let core = &self.core;
        if core.shutdown.load(Ordering::Acquire) || core.injector.pending() > 0 {
            return true;
        }
        core.stealers
            .iter()
            .enumerate()
            .any(|(j, s)| j != self.index && s.len_hint() > 0)
    }

    /// Nanoseconds since this worker's idle episode began.
    fn idle_ns(&self) -> u64 {
        u64::try_from(self.idle_since.get().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Counts one failed hunt of `worker_main` and says whether to park
    /// now. The first failure opens an idle episode; the one that ends a
    /// full spin times it.
    fn hunt_failed(&self) -> bool {
        let fails = self.fails.get().saturating_add(1);
        self.fails.set(fails);
        let park_after = self.idle.park_after();
        if fails == 1 {
            self.idle_since.set(Instant::now());
        } else if fails == park_after {
            self.idle.spin_done(self.idle_ns());
        }
        fails >= park_after
    }

    /// Parks this worker until a producer's wake. May return without
    /// parking at all when the sleep protocol detects work.
    ///
    /// The three-step protocol from [`crate::sleep`]: announce, re-scan
    /// every work source, then commit via the epoch-checked CAS; a
    /// producer that publishes anywhere in between either fails the
    /// commit or (once committed) is obliged to wake us.
    /// Park/unpark counters and trace spans move only for *committed*
    /// parks, so `parks == unparks` holds exactly at shutdown.
    ///
    /// Only `worker_main` parks, and only after a pop of both stacks
    /// failed, so a sleeping worker holds nothing — in particular no
    /// private entry that its thieves could not see.
    fn park(&self) {
        debug_assert!(self.deque.private().is_empty(), "parking over private work");
        let sleep = &self.core.sleep;
        if !sleep.try_commit(self.index, || self.work_in_sight()) {
            // Work in sight, or a producer moved the epoch after our
            // re-scan began and its work is visible now: resume hunting.
            return;
        }
        if self.woken_pending.replace(false) {
            // Woken last time but found nothing before sleeping again:
            // that wake bought no work.
            sleep.note_spurious_wake();
        }
        self.stats().parks.fetch_add(1, Ordering::Relaxed);
        self.tele_record(EventKind::Park);
        sleep.park_committed(self.index);
        self.stats().unparks.fetch_add(1, Ordering::Relaxed);
        self.tele_record(EventKind::Unpark);
        self.woken_pending.set(true);
        self.woken_at
            .set(self.tele.as_ref().map_or(0, |t| t.now_ns()));
    }
}

/// The scheduling loop (Figure 3). The TLS registration is what lets
/// `join`, `scope`, the latches and the data-parallel layer reach this
/// context ([`current_worker`]).
///
/// Where a worker stops touching its deque, its private stack is empty:
/// the loop hunts, parks ([`WorkerCtx::park`]) and exits only after
/// `ctx.pop()` — private first, then public — came back `None`, and
/// nothing in those arms pushes privately. (The one place a worker can
/// block *holding* private work is a foreign [`ThreadPool::install`],
/// which exposes it all first.)
fn worker_main(ctx: WorkerCtx) {
    CURRENT.with(|c| c.set(&ctx));
    loop {
        let job = ctx.pop().or_else(|| ctx.find_distant_work());
        match job {
            Some(job) => {
                ctx.note_found_work();
                ctx.execute_job(job);
            }
            None => {
                if ctx.core.shutdown.load(Ordering::Acquire) {
                    // Drain the front door before exiting so every
                    // accepted external submission still runs exactly
                    // once, each counted like a polled job. Blocking
                    // pops: during shutdown a `None` must really mean
                    // empty. (A straggler that lands after every
                    // worker's last sweep is run by
                    // `ThreadPool::shutdown` itself.)
                    if let Some((word, submit_ns)) = ctx.core.injector.pop_blocking(ctx.index) {
                        ctx.stats().steal_attempts.fetch_add(1, Ordering::Relaxed);
                        let job = ctx.took_injected(word, submit_ns);
                        ctx.note_found_work();
                        ctx.execute_job(Job::Ref(job));
                        continue;
                    }
                    break;
                }
                if ctx.hunt_failed() {
                    ctx.park();
                    // A wake-up usually means an external submission;
                    // poll unconditionally (counted), even when the
                    // backlog gauge reads empty, so a woken worker
                    // reaches the injected job straight away.
                    if let Some(job) = ctx.poll_injector() {
                        ctx.note_found_work();
                        ctx.execute_job(Job::Ref(job));
                    }
                }
            }
        }
    }
    debug_assert!(ctx.deque.private().is_empty(), "exiting over private work");
    CURRENT.with(|c| c.set(std::ptr::null()));
}

/// Spawns one worker thread per owner handle (`owners[i]` is the owner
/// side of `core.stealers[i]`).
fn spawn_workers(
    core: &Arc<SharedCore>,
    owners: Vec<abp_deque::Worker<usize>>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut seed_rng = DetRng::new(SEED);
    owners
        .into_iter()
        .enumerate()
        .map(|(index, deque)| {
            let ctx = WorkerCtx {
                index,
                deque: PrivateFirst::new(deque, Arc::clone(&core.attention)),
                core: Arc::clone(core),
                victim: RefCell::new(UniformVictim::new()),
                rng: RefCell::new(seed_rng.fork(index as u64)),
                fails: Cell::new(0),
                idle_since: Cell::new(Instant::now()),
                idle: IdleRule::default(),
                draining: Cell::new(false),
                woken_pending: Cell::new(false),
                woken_at: Cell::new(0),
                hunting: Cell::new(false),
                tele: core.registry.as_ref().map(|r| r.worker(index)),
            };
            std::thread::Builder::new()
                .name(format!("hood-worker-{index}"))
                .stack_size(STACK_SIZE)
                .spawn(move || worker_main(ctx))
                .expect("failed to spawn worker thread")
        })
        .collect()
}

/// What [`ThreadPool::shutdown`] returns: final statistics gathered
/// *after* every worker has exited, so no counter or trace can still be
/// moving underneath the caller.
#[derive(Debug)]
pub struct PoolReport {
    /// Aggregate counters over the pool's whole life.
    pub stats: PoolStats,
    /// The same counters, per worker.
    pub per_worker: Vec<PoolStats>,
    /// Sleep/wake-subsystem counters over the pool's whole life.
    pub sleep: SleepStats,
    /// The final telemetry snapshot, if tracing was configured.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// A work-stealing thread pool in the spirit of the authors' Hood library.
pub struct ThreadPool {
    core: Arc<SharedCore>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool with `num_procs` workers and default configuration.
    pub fn new(num_procs: usize) -> Self {
        Self::with_config(PoolConfig {
            num_procs,
            ..PoolConfig::default()
        })
    }

    /// A pool with explicit configuration.
    pub fn with_config(config: PoolConfig) -> Self {
        assert!(config.num_procs >= 1);
        let p = config.num_procs;
        let registry = config
            .telemetry
            .as_ref()
            .map(|tc| Registry::with_policy(p, tc, config.policies.label()));
        let traced = registry.is_some();
        let (owners, stealers) = (0..p)
            .map(|_| abp_deque::new(config.backend.capacity))
            .unzip();
        let core = Arc::new(SharedCore {
            num_procs: p,
            stealers,
            injector: Injector::new(p),
            sleep: Sleep::new(p),
            shutdown: AtomicBool::new(false),
            split: config.policies.split,
            stats: (0..p).map(|_| WorkerStats::default()).collect(),
            attention: Arc::new(Attention::new(traced)),
            registry,
        });
        let handles = spawn_workers(&core, owners);
        ThreadPool { core, handles }
    }

    /// The process count `P`.
    pub fn num_procs(&self) -> usize {
        self.core.num_procs
    }

    /// Runs `f` inside the pool (so that [`crate::join()`](crate::join::join) and
    /// [`crate::scope()`](crate::scope::scope) parallelize) and returns its result. Blocks the
    /// calling thread until done. If already on a worker thread of this
    /// pool, runs `f` directly.
    ///
    /// Calling this from a worker thread of a *different* pool blocks
    /// that worker (it sleeps rather than work-steals, after making
    /// everything it holds stealable) — mutual cross-pool installs can
    /// therefore deadlock, exactly as in other work-stealing runtimes.
    /// Prefer one pool, or acyclic pool dependencies.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let foreign = current_worker();
        if let Some(w) = foreign {
            if std::ptr::eq(w.core_ptr(), Arc::as_ptr(&self.core)) {
                return f();
            }
        }
        let result: Mutex<Option<std::thread::Result<R>>> = Mutex::new(None);
        let latch = LockLatch::new();
        {
            // SAFETY: we block on `latch` before leaving this scope, so
            // every borrow the job captures outlives its execution, and
            // the injector hands the job to exactly one worker.
            let job = unsafe {
                crate::job::HeapJob::into_job_ref(|| {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                    *result.lock().unwrap() = Some(r);
                    latch.set();
                })
            };
            self.core.inject(job);
            // A worker of another pool is about to sleep on the latch
            // with the `b` sides of its enclosing joins on its private
            // stack, where no hunter of its own pool can reach them and
            // it will make no push or pop to hand them over: expose them
            // all first. (Any other caller of `LockLatch::wait` is a
            // plain thread and owns no deque.)
            if let Some(w) = foreign {
                w.expose_all();
            }
            latch.wait();
        }
        match result
            .into_inner()
            .unwrap()
            .expect("install job did not produce a result")
        {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Submits `f` for execution from *any* thread — the pool's front
    /// door. Returns immediately; the job runs on whichever worker
    /// grabs it from the sharded injector. Fire-and-forget: use
    /// [`ThreadPool::install`] (or channels/latches inside `f`) when
    /// the caller needs the result. Jobs accepted before
    /// [`ThreadPool::shutdown`] returns are guaranteed to execute
    /// exactly once (workers drain the injector before exiting, and
    /// `shutdown` itself runs any straggler that slipped in after the
    /// last worker's final sweep — nothing is leaked).
    ///
    /// A panic in `f` is caught and dropped: it ends the job, which still
    /// counts as run, and not the worker that runs it.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        // SAFETY: the closure is 'static and the injector/worker
        // protocol executes each submitted job exactly once (each entry
        // is popped by exactly one worker, and shutdown drains leftovers).
        let job = unsafe { crate::job::HeapJob::into_job_ref(detached(f)) };
        self.core.inject(job);
    }

    /// Submits a batch of jobs under a single injector shard lock — the
    /// cheap way for one client to submit many jobs at once. Same
    /// semantics per job as [`ThreadPool::spawn`].
    pub fn spawn_batch<I, F>(&self, jobs: I)
    where
        I: IntoIterator<Item = F>,
        F: FnOnce() + Send + 'static,
    {
        let words: Vec<usize> = jobs
            .into_iter()
            // SAFETY: as in `spawn` — exactly-once execution of each ref.
            .map(|f| unsafe { crate::job::HeapJob::into_job_ref(detached(f)) }.to_word())
            .collect();
        self.core.inject_batch(&words);
    }

    /// Jobs submitted from outside and not yet picked up by a worker.
    pub fn injector_backlog(&self) -> usize {
        self.core.injector.pending()
    }

    /// Aggregate scheduler statistics since pool creation.
    pub fn stats(&self) -> PoolStats {
        PoolStats::aggregate(&self.core.stats)
    }

    /// Per-worker scheduler statistics since pool creation.
    pub fn per_worker_stats(&self) -> Vec<PoolStats> {
        self.core.stats.iter().map(|w| w.snapshot()).collect()
    }

    /// Workers currently asleep (a live gauge: exact at quiescence).
    pub fn sleeping_workers(&self) -> usize {
        self.core.sleep.sleepers()
    }

    /// Live sleep/wake-subsystem counters since pool creation.
    pub fn sleep_stats(&self) -> SleepStats {
        self.core.sleep.stats()
    }

    /// A live telemetry snapshot, if tracing was configured. Workers keep
    /// running (and recording) while this executes; for counts that must
    /// be exact, stop the pool with [`ThreadPool::shutdown`] instead.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.core.telemetry_snapshot()
    }

    /// Raises the shutdown flag, wakes every worker and joins them.
    /// Flag first, wake second: `notify_shutdown`'s epoch bump makes the
    /// flag visible to any worker racing into a park (its commit fails or
    /// its wake arrives), so no worker can sleep through shutdown.
    ///
    /// A job may drop the last handle to its own pool (or shut it down),
    /// and then this runs on one of the pool's workers. That worker is
    /// not joined — a thread cannot join itself — but detached: it sees
    /// the flag and exits once the job returns.
    fn stop_workers(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.sleep.notify_shutdown();
        let me = std::thread::current().id();
        for h in self.handles.drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }

    /// Stops the pool (joining every worker) and returns the final,
    /// quiescent statistics and telemetry. Unlike [`ThreadPool::stats`] /
    /// [`ThreadPool::telemetry_snapshot`], nothing can race this: the
    /// trace, the per-worker counters, and the aggregate are mutually
    /// consistent.
    pub fn shutdown(mut self) -> PoolReport {
        self.stop_workers();
        // Workers drain the injector before exiting, but a submission
        // racing the shutdown flag could in principle land after the last
        // worker's final sweep. Run (not leak) any stragglers here —
        // every accepted job executes exactly once. Workers are gone, so
        // this thread is the only consumer, and worker 0's stats slot,
        // which no worker writes any more, counts each straggler as one
        // attempt, one inject and one job (untraced: this thread has no
        // ring), so `injects` still equals the jobs ever submitted.
        let slot = &self.core.stats[0];
        while let Some((word, _)) = self.core.injector.pop_blocking(0) {
            slot.steal_attempts.fetch_add(1, Ordering::Relaxed);
            slot.injects.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the word came out of the injector exactly once,
            // so this is the job's single execution. Every injected job
            // catches its own panic (`detached`, `install`).
            unsafe { JobRef::from_word(word).execute() };
            WorkerStats::bump(&slot.jobs);
        }
        let stats = self.stats();
        debug_assert!(
            stats.attempts_balance(),
            "steal accounting identity violated: {stats:?}"
        );
        debug_assert!(
            stats.parks_balance(),
            "park accounting identity violated: parks {} != unparks {}",
            stats.parks,
            stats.unparks
        );
        let sleep = self.core.sleep.stats();
        // Every hit-after-unpark is credited to exactly one delivered
        // wake.
        debug_assert!(
            sleep.wakes_sent >= sleep.hits_after_unpark,
            "wake accounting identity violated: {sleep:?}"
        );
        PoolReport {
            stats,
            per_worker: self.per_worker_stats(),
            sleep,
            telemetry: self.core.telemetry_snapshot(),
        }
    }
}

/// A fire-and-forget job whose panic ends the job and not its worker:
/// nobody waits on the job to take the panic up.
fn detached<F: FnOnce() + Send + 'static>(f: F) -> impl FnOnce() + Send + 'static {
    move || {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The label run fingerprints stamp: Figure 3 plus the untimed park,
    /// with a suffix only for a non-default split cadence.
    #[test]
    fn policy_label_is_the_paper_plus_the_split_suffix() {
        assert_eq!(
            PoolConfig::default().policies.label(),
            "uniform+yield+park-wake"
        );
        let label = |split| PoolConfig::default().with_split(split).policies.label();
        assert_eq!(label(SplitKind::Adaptive), "uniform+yield+park-wake");
        assert_eq!(
            label(SplitKind::EagerGrain { grain: 64 }),
            "uniform+yield+park-wake+split-grain"
        );
        assert_eq!(
            label(SplitKind::Sequential),
            "uniform+yield+park-wake+split-seq"
        );
    }
}
