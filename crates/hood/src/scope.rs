//! Structured fire-and-forget spawning: `scope(|s| s.spawn(...))`.
//!
//! A scope guarantees every spawned job finishes before `scope` returns,
//! which is what makes borrowing local data from spawned closures sound.
//! Spawned jobs become the newest entries of the spawning worker's deque
//! exactly like a join's second operand — on its private stack first,
//! exposed oldest-first while some worker is out of work — and idle
//! workers steal them from the top.

use crate::job::HeapJob;
use crate::latch::CountLatch;
use crate::pool::current_worker;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

/// A spawn scope. See [`scope`].
pub struct Scope<'scope> {
    /// Spawned jobs not yet finished, counted per worker.
    latch: CountLatch,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    // Invariant over 'scope, like rayon: spawned closures may borrow
    // anything that outlives the scope call.
    marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `body` to run (potentially in parallel) before the enclosing
    /// [`scope`] returns. May be called from any thread inside the scope,
    /// including from other spawned jobs.
    ///
    /// As with [`join`](crate::join::join), the parallelism is potential:
    /// a job spawned while every other worker is busy becomes stealable
    /// only when its spawner next spawns or reaches a job boundary with
    /// some worker out of work. A job must therefore never wait for a
    /// sibling by any means other than the scope itself returning.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let worker = current_worker();
        self.latch.increment(worker);
        let this: &Scope<'scope> = self;
        let run = move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(this)));
            if let Err(p) = result {
                let mut slot = this.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            this.latch.decrement();
        };
        match worker {
            Some(w) => {
                // SAFETY: `scope` blocks until the latch has counted
                // every job out, so the job (which borrows `self` and
                // `'scope` data) cannot outlive its borrows; the deque
                // delivers it exactly once.
                w.push(unsafe { HeapJob::into_job_ref(run) });
            }
            None => run(), // no pool: immediate execution
        }
    }
}

/// Creates a scope, runs `f` inside it, waits for every spawned job, then
/// returns `f`'s result. If any job (or `f` itself) panicked, the first
/// panic is re-raised here after all jobs have completed.
///
/// ```
/// use hood::{scope, ThreadPool};
/// use std::sync::atomic::{AtomicU32, Ordering};
///
/// let pool = ThreadPool::new(2);
/// let hits = AtomicU32::new(0);
/// pool.install(|| {
///     scope(|s| {
///         for _ in 0..8 {
///             s.spawn(|_| { hits.fetch_add(1, Ordering::Relaxed); });
///         }
///     });
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 8);
/// ```
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let s = Scope {
        latch: CountLatch::new(),
        panic: Mutex::new(None),
        marker: PhantomData,
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&s)));
    // Wait for all spawned jobs — by working, if we are a worker.
    s.latch.wait();
    if let Some(p) = s.panic.lock().unwrap().take() {
        std::panic::resume_unwind(p);
    }
    match result {
        Ok(r) => r,
        Err(p) => std::panic::resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn scope_runs_all_spawns() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..100 {
                    s.spawn(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_spawns() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU64::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|s| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        for _ in 0..4 {
                            s.spawn(|_| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 + 16);
    }

    #[test]
    fn scope_borrows_stack_data() {
        let pool = ThreadPool::new(4);
        let mut results = vec![0u64; 64];
        pool.install(|| {
            scope(|s| {
                for (i, slot) in results.iter_mut().enumerate() {
                    s.spawn(move |_| {
                        *slot = (i as u64) * 2;
                    });
                }
            });
        });
        for (i, &v) in results.iter().enumerate() {
            assert_eq!(v, i as u64 * 2);
        }
    }

    #[test]
    fn scope_outside_pool_runs_inline() {
        let counter = AtomicU64::new(0);
        scope(|s| {
            s.spawn(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn spawn_panic_propagates_after_completion() {
        let pool = ThreadPool::new(2);
        let completed = AtomicU64::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                scope(|s| {
                    s.spawn(|_| panic!("spawned panic"));
                    for _ in 0..10 {
                        s.spawn(|_| {
                            completed.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            })
        }));
        assert!(r.is_err());
        // All non-panicking jobs still ran before the panic surfaced.
        assert_eq!(completed.load(Ordering::Relaxed), 10);
        // Pool survives.
        assert_eq!(pool.install(|| 2 + 2), 4);
    }
}
