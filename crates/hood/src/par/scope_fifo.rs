//! A spawn scope with FIFO *service order*: `scope_fifo(|s| s.spawn_fifo(..))`.
//!
//! The plain [`crate::scope()`] inherits the deque's LIFO discipline on
//! the owning worker: the most recently spawned job runs first. That is
//! the right default for divide-and-conquer, but pipeline-shaped code
//! (stage N spawning stage N+1 for many items) wants the opposite —
//! items should *start* in submission order so early items drain through
//! the pipeline instead of starving behind late arrivals.
//!
//! The trick (shared with other FIFO scopes in the rayon lineage) is to
//! decouple the *closure* from the *deque slot*: `spawn_fifo` appends
//! the closure to a scope-level FIFO queue and pushes an anonymous
//! wrapper job onto the worker's deque. Whichever wrapper runs next —
//! popped LIFO by its owner or stolen FIFO by a thief — dequeues and
//! runs the *oldest* queued closure. Deque order becomes irrelevant to
//! service order; the queue alone decides, and it is first-in-first-out.

use crate::latch::CountLatch;
use crate::pool::current_worker;
use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

type QueuedJob<'scope> = Box<dyn FnOnce(&ScopeFifo<'scope>) + Send + 'scope>;

/// A FIFO spawn scope. See [`scope_fifo`].
pub struct ScopeFifo<'scope> {
    /// Spawned closures not yet finished, counted per worker.
    latch: CountLatch,
    /// Closures awaiting service, oldest first. Wrapper jobs (one per
    /// queued closure) each pop and run exactly one entry.
    queue: Mutex<VecDeque<QueuedJob<'scope>>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    // Invariant over 'scope, like `Scope`: spawned closures may borrow
    // anything that outlives the scope call.
    marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> ScopeFifo<'scope> {
    /// Spawns `body` to run before the enclosing [`scope_fifo`] returns.
    /// Spawned closures are *serviced* in spawn order (FIFO), though they
    /// may still run in parallel with each other once started.
    pub fn spawn_fifo<F>(&self, body: F)
    where
        F: FnOnce(&ScopeFifo<'scope>) + Send + 'scope,
    {
        let worker = current_worker();
        self.latch.increment(worker);
        self.queue.lock().unwrap().push_back(Box::new(body));
        let this: &ScopeFifo<'scope> = self;
        let run = move || this.service_one();
        match worker {
            Some(w) => {
                // SAFETY: `scope_fifo` blocks until the latch has counted
                // every closure out, so the wrapper (which borrows
                // `self`, and through the queue borrows `'scope` data)
                // cannot outlive its borrows; the deque delivers it
                // exactly once. The wrapper is one pointer, so it rides
                // inline on the private stack; only the queued closure
                // is boxed.
                unsafe { w.spawn(run) };
            }
            None => run(), // no pool: immediate (and trivially FIFO)
        }
    }

    /// Runs the oldest queued closure. Exactly one queued closure exists
    /// per outstanding wrapper, so the pop cannot come up empty.
    fn service_one(&self) {
        let body = self
            .queue
            .lock()
            .unwrap()
            .pop_front()
            .expect("one queued closure per wrapper job");
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(self)));
        if let Err(p) = result {
            let mut slot = self.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        self.latch.decrement();
    }
}

/// Creates a FIFO scope, runs `f` inside it, waits for every spawned
/// job, then returns `f`'s result. If any job (or `f` itself) panicked,
/// the first panic is re-raised here after all jobs have completed.
///
/// ```
/// use hood::{scope_fifo, ThreadPool};
/// use std::sync::atomic::{AtomicU32, Ordering};
///
/// let pool = ThreadPool::new(2);
/// let hits = AtomicU32::new(0);
/// pool.install(|| {
///     scope_fifo(|s| {
///         for _ in 0..8 {
///             s.spawn_fifo(|_| { hits.fetch_add(1, Ordering::Relaxed); });
///         }
///     });
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 8);
/// ```
pub fn scope_fifo<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&ScopeFifo<'scope>) -> R + Send,
    R: Send,
{
    let s = ScopeFifo {
        latch: CountLatch::new(),
        queue: Mutex::new(VecDeque::new()),
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
    fn runs_all_spawns() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.install(|| {
            scope_fifo(|s| {
                for _ in 0..100 {
                    s.spawn_fifo(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    /// On a single worker with no thieves, service order must be exactly
    /// spawn order — the property that distinguishes this scope from the
    /// LIFO `crate::scope`.
    #[test]
    fn single_worker_services_in_spawn_order() {
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.install(|| {
            let order = &order;
            scope_fifo(|s| {
                for i in 0..32 {
                    s.spawn_fifo(move |_| {
                        order.lock().unwrap().push(i);
                    });
                }
            });
        });
        assert_eq!(*order.lock().unwrap(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn nested_spawns_and_borrows() {
        let pool = ThreadPool::new(3);
        let mut slots = [0u64; 16];
        pool.install(|| {
            scope_fifo(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn_fifo(move |s2| {
                        *slot = i as u64 + 1;
                        s2.spawn_fifo(|_| {});
                    });
                }
            });
        });
        for (i, &v) in slots.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }

    #[test]
    fn works_outside_pool() {
        let counter = AtomicU64::new(0);
        scope_fifo(|s| {
            s.spawn_fifo(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panic_propagates_after_completion() {
        let pool = ThreadPool::new(2);
        let completed = AtomicU64::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                scope_fifo(|s| {
                    s.spawn_fifo(|_| panic!("fifo panic"));
                    for _ in 0..10 {
                        s.spawn_fifo(|_| {
                            completed.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            })
        }));
        assert!(r.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 10);
        assert_eq!(pool.install(|| 2 + 2), 4);
    }
}
