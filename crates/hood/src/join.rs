//! Fork-join primitive: `join(a, b)` runs the two closures potentially in
//! parallel and returns both results.
//!
//! On a worker thread this is the textbook work-stealing spawn: `b` is
//! pushed as the newest entry of the worker's deque (the paper's *spawn*
//! action, depth-first "latter choice"), `a` runs immediately, and the
//! worker then reconciles with whatever happened to `b`:
//!
//! * still on our private stack → pop it back and run it inline. This
//!   is the common case and costs a store, an index bump and one relaxed
//!   load of the attention word going in, a load and an index decrement
//!   coming out, behind one thin TLS load: no allocation, no virtual
//!   call, no atomic read-modify-write and no fence (see
//!   [`crate::private`]);
//! * exposed on the public deque meanwhile, but not stolen → `popBottom`
//!   hands it back and it runs inline all the same;
//! * stolen and finished → take the thief's result through the latch;
//! * stolen and in progress → *wait by working*: execute other pending
//!   jobs or steal from other workers until the latch sets (a process is
//!   never idle while ready work exists — the scheduling loop's
//!   discipline).
//!
//! Panics in either closure propagate to the caller; if `a` panics while
//! `b` is stolen, we still wait for `b` to finish before unwinding, so no
//! thief can touch a dead stack frame.

use crate::job::{Job, JobRef, JobResult, StackJob};
use crate::pool::{current_worker, WorkerCtx};
use std::panic::AssertUnwindSafe;

/// Runs `oper_a` and `oper_b`, potentially in parallel, returning both
/// results. Outside a pool this degenerates to sequential calls.
///
/// The parallelism is *potential*. If every other worker is busy at the
/// moment of the call, `oper_b` waits on the calling worker's private
/// stack and becomes stealable only when the caller next forks or
/// reaches a job boundary with some worker out of work; if `oper_a`
/// neither forks nor returns, `oper_b` may never run beside it. So the
/// two sides must not wait for one another by any means of their own —
/// a flag, a channel, a lock held across the call: the only wait `join`
/// supports is `join` itself returning (likewise
/// [`scope`](crate::scope::scope) and its spawns).
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match current_worker() {
        Some(worker) => join_on_worker(worker, oper_a, oper_b),
        None => (oper_a(), oper_b()),
    }
}

fn join_on_worker<A, B, RA, RB>(worker: &WorkerCtx, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(oper_b);
    // SAFETY: job_b is kept alive (and this frame pinned) until either we
    // pop it back or its latch is set — see `reconcile`.
    let job_ref = unsafe { job_b.as_job_ref() };
    let stack = worker.private();
    if stack.push(job_ref.to_word()) {
        worker.after_push();
    }

    let status_a = std::panic::catch_unwind(AssertUnwindSafe(oper_a));

    // Reconcile job_b. This must complete before we can return *or*
    // unwind, because job_b lives in this frame. `None` means we took
    // our own job back un-executed.
    //
    // On the never-stolen, never-exposed fast path the newest private
    // entry is `job_ref` itself: everything `a` pushed above it has been
    // popped or stolen by the time `a` returns. Anything else — another
    // entry on top (a spawn onto an enclosing scope outlives `a`), or an
    // empty private stack (`b` was exposed) — goes the long way round.
    let result_b = match stack.pop().map(JobRef::from_word) {
        Some(j) if j == job_ref => None,
        other => reconcile(worker, &job_b, job_ref, other),
    };

    match status_a {
        Ok(ra) => {
            let rb = match result_b {
                Some(r) => r.into_return_value(),
                // b was never run by anyone else; run it inline.
                None => unsafe { job_b.run_inline() },
            };
            (ra, rb)
        }
        Err(p) => {
            // Surface a's panic. b either completed on a thief (its
            // result, panic payload included, is dropped) or was reclaimed
            // un-run.
            drop(result_b);
            std::panic::resume_unwind(p)
        }
    }
}

/// The slow half of a `join`'s reconcile: `popped` (an entry already
/// taken off the private stack, or nothing) was not `job_ref`. Works
/// through the worker's deque until `job_ref` comes back un-run (`None`)
/// or its latch is set (`Some(result)`).
///
/// `popped` may be an inline spawn, whose body sits in the slot the pop
/// just freed: it is claimed first, and run from that slot before
/// anything here can push over it. That check lives here, on the cold
/// path, and not in `join_on_worker`, whose fast path stays a pop and a
/// compare.
///
/// Pop first, probe the latch second: a `b` that was exposed but not
/// stolen comes straight back from the deque, so the latch is only worth
/// reading once a pop has told us `b` is gone.
#[cold]
fn reconcile<B, RB>(
    worker: &WorkerCtx,
    job_b: &StackJob<B, RB>,
    job_ref: JobRef,
    popped: Option<JobRef>,
) -> Option<JobResult<RB>>
where
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    // SAFETY: `popped` came off the private stack with no push since,
    // and is claimed once.
    let mut popped = popped.map(|j| unsafe { worker.private().claim(j.to_word()) });
    loop {
        match popped.take().or_else(|| worker.pop()) {
            Some(Job::Ref(j)) if j == job_ref => {
                // Popped our own job back: nobody else will ever run it.
                return None;
            }
            Some(j) => {
                // A pending job from an enclosing join/scope: running it
                // here is equivalent to it having been stolen.
                worker.execute_job(j);
            }
            None => {
                // Deque empty and b out with a thief. A stolen join
                // operand usually retires within a few hundred cycles, so
                // spin briefly on the latch before paying for a steal
                // scan; the bound preserves the wait-by-working (and
                // ultimately parking) discipline.
                if job_b.latch.probe_spin(64) {
                    return Some(unsafe { job_b.take_result() });
                }
                // Contribute by stealing elsewhere (includes the
                // configured yield).
                if let Some(j) = worker.find_distant_work() {
                    worker.execute_job(j);
                }
            }
        }
        if job_b.latch.probe() {
            return Some(unsafe { job_b.take_result() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    #[test]
    fn join_outside_pool_is_sequential() {
        let (a, b) = join(|| 1 + 1, || "x".repeat(3));
        assert_eq!(a, 2);
        assert_eq!(b, "xxx");
    }

    #[test]
    fn parallel_fib_matches_serial() {
        let pool = ThreadPool::new(4);
        let r = pool.install(|| fib(18));
        assert_eq!(r, 2584);
    }

    #[test]
    fn join_with_borrows() {
        let pool = ThreadPool::new(2);
        let data: Vec<u64> = (0..1000).collect();
        let sum = pool.install(|| {
            let (l, r) = join(
                || data[..500].iter().sum::<u64>(),
                || data[500..].iter().sum::<u64>(),
            );
            l + r
        });
        assert_eq!(sum, 999 * 1000 / 2);
    }

    #[test]
    fn deep_nesting() {
        let pool = ThreadPool::new(3);
        fn depth_sum(d: u32) -> u64 {
            if d == 0 {
                return 1;
            }
            let (a, b) = join(|| depth_sum(d - 1), || depth_sum(d - 1));
            a + b
        }
        assert_eq!(pool.install(|| depth_sum(12)), 1 << 12);
    }

    #[test]
    fn panic_in_a_propagates() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                let _ = join(|| panic!("a-side"), || 1 + 1);
            })
        }));
        assert!(r.is_err());
        // The pool must still be usable.
        assert_eq!(pool.install(|| fib(10)), 55);
    }

    #[test]
    fn panic_in_b_propagates() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                let _ = join(|| 1 + 1, || panic!("b-side"));
            })
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| fib(10)), 55);
    }

    #[test]
    fn single_worker_pool_still_completes() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.install(|| fib(15)), 610);
    }

    #[test]
    fn steal_is_forced_when_a_waits_on_b() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // `a` cannot finish until `b` runs, and the worker executing `a`
        // cannot run `b` itself (it is busy in `a`), so some other worker
        // *must* steal `b` — a deterministic steal even on one core.
        let pool = ThreadPool::new(4);
        let flag = AtomicBool::new(false);
        pool.install(|| {
            join(
                || {
                    while !flag.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                },
                || flag.store(true, Ordering::Release),
            )
        });
        let stats = pool.stats();
        assert!(stats.jobs > 0);
        assert!(stats.steals >= 1, "no steal recorded: {stats:?}");
    }
}
