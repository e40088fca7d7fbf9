//! A lock-based deque with the same interface as the ABP deque.
//!
//! This is the ablation baseline for the paper's claim (§1) that
//! *non-blocking* data structures are essential under multiprogramming: if
//! the kernel preempts a process while it holds a deque lock, every thief
//! that targets that deque spins uselessly until the victim runs again.
//! On a dedicated machine the difference is modest; once `P_A < P` it is
//! dramatic. The real-runtime benchmarks and the simulator both expose the
//! backend choice so the two can be compared head to head.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::atomic::Steal;

/// A mutex-protected deque. `pushBottom`/`popBottom`/`popTop` all take the
/// same lock; there is no owner/thief distinction in the type system
/// because the lock serializes everyone anyway.
#[derive(Clone)]
pub struct LockingDeque<T> {
    inner: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Default for LockingDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LockingDeque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        LockingDeque {
            inner: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Pushes at the bottom (owner end).
    pub fn push_bottom(&self, v: T) {
        self.inner.lock().unwrap().push_back(v);
    }

    /// Pops from the bottom (owner end).
    pub fn pop_bottom(&self) -> Option<T> {
        self.inner.lock().unwrap().pop_back()
    }

    /// Pops from the top (thief end). Uses `try_lock` so a thief never
    /// sleeps on a preempted lock holder: contention reports
    /// [`Steal::Abort`], mirroring the non-blocking deque's interface.
    pub fn pop_top(&self) -> Steal<T> {
        match self.inner.try_lock() {
            Ok(mut q) => match q.pop_front() {
                Some(v) => Steal::Taken(v),
                None => Steal::Empty,
            },
            Err(_) => Steal::Abort,
        }
    }

    /// Current size.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Snapshot of the contents, bottom (owner end) to top (thief end).
    /// Diagnostic only — meaningful when no operation is in flight, which
    /// is exactly the situation in the simulator's structural checks.
    pub fn contents_bottom_to_top(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.inner.lock().unwrap().iter().rev().cloned().collect()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_bottom_fifo_top() {
        let d = LockingDeque::new();
        for i in 0..5 {
            d.push_bottom(i);
        }
        assert_eq!(d.pop_top().taken(), Some(0));
        assert_eq!(d.pop_bottom(), Some(4));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn empty_behaviour() {
        let d: LockingDeque<u64> = LockingDeque::new();
        assert!(d.is_empty());
        assert_eq!(d.pop_bottom(), None);
        assert_eq!(d.pop_top(), Steal::Empty);
    }

    #[test]
    fn concurrent_conservation() {
        use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
        const N: usize = 10_000;
        let d: LockingDeque<usize> = LockingDeque::new();
        let counts: Arc<Vec<AtomicU8>> = Arc::new((0..N).map(|_| AtomicU8::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let d = d.clone();
            let counts = Arc::clone(&counts);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || loop {
                match d.pop_top() {
                    Steal::Taken(v) => {
                        counts[v].fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Empty => {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    Steal::Abort => {}
                }
            }));
        }
        for i in 0..N {
            d.push_bottom(i);
            if i % 3 == 0 {
                if let Some(v) = d.pop_bottom() {
                    counts[v].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        while let Some(v) = d.pop_bottom() {
            counts[v].fetch_add(1, Ordering::Relaxed);
        }
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "value {i}");
        }
    }
}
