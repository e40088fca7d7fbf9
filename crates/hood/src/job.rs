//! Type-erased units of work.
//!
//! The ABP deque stores single machine words; a job is therefore
//! represented in the deque as a raw pointer to a structure whose first
//! field is a [`JobHeader`] — one word, one indirect call to execute,
//! exactly the paper's "deque of (pointers to) threads".
//!
//! Two concrete job kinds:
//! * [`StackJob`] — lives in the frame of a `join` call; the caller
//!   guarantees (by waiting on the latch) that the frame outlives any
//!   execution;
//! * [`HeapJob`] — boxed, freed after execution: what `Scope::spawn`,
//!   `ScopeFifo::spawn_fifo`, `ThreadPool::install` and the front door
//!   (`ThreadPool::spawn` / `spawn_batch`) allocate per job.

use crate::latch::SpinLatch;
use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;

/// First field of every job structure; `execute` receives the pointer to
/// the header and downcasts to the concrete job type.
#[repr(C)]
pub struct JobHeader {
    pub execute: unsafe fn(*const JobHeader),
}

/// A word-sized reference to a job, as stored in deques.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobRef(pub *const JobHeader);

unsafe impl Send for JobRef {}

impl JobRef {
    /// Runs the job.
    ///
    /// # Safety
    ///
    /// The pointer must reference a live job that has not yet been
    /// executed; the job is consumed.
    #[inline]
    pub unsafe fn execute(self) {
        ((*self.0).execute)(self.0)
    }

    /// The word stored in a deque.
    #[inline]
    pub fn to_word(self) -> usize {
        self.0 as usize
    }

    /// Recovers a reference from a deque word.
    #[inline]
    pub fn from_word(w: usize) -> Self {
        JobRef(w as *const JobHeader)
    }
}

/// Outcome of an executed job body: a value or a captured panic payload.
pub enum JobResult<R> {
    Ok(R),
    Panic(Box<dyn std::any::Any + Send>),
}

impl<R> JobResult<R> {
    /// Unwraps the value, resuming the panic on the caller's stack if the
    /// job panicked (so panics propagate across steals, like rayon).
    pub fn into_return_value(self) -> R {
        match self {
            JobResult::Ok(r) => r,
            JobResult::Panic(p) => std::panic::resume_unwind(p),
        }
    }
}

/// A job allocated in the caller's stack frame (the `b` side of a join).
#[repr(C)]
pub struct StackJob<F, R> {
    header: JobHeader,
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<JobResult<R>>>,
    pub latch: SpinLatch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub fn new(f: F) -> Self {
        StackJob {
            header: JobHeader {
                execute: Self::execute_erased,
            },
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            latch: SpinLatch::new(),
        }
    }

    /// The word-sized handle to push into a deque.
    ///
    /// # Safety
    ///
    /// The caller must keep `self` alive and pinned until the latch is
    /// set (or until it reclaims the job by popping it back un-executed).
    pub unsafe fn as_job_ref(&self) -> JobRef {
        JobRef(&self.header as *const JobHeader)
    }

    unsafe fn execute_erased(header: *const JobHeader) {
        let this = &*(header as *const Self);
        let f = (*this.f.get()).take().expect("job executed twice");
        let result = match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => JobResult::Ok(r),
            Err(p) => JobResult::Panic(p),
        };
        *this.result.get() = Some(result);
        // The latch release-publishes the result.
        this.latch.set();
    }

    /// Runs the body inline (the caller popped the job back before any
    /// thief got it). Consumes the closure without the latch protocol.
    ///
    /// # Safety
    ///
    /// No other process may hold a [`JobRef`] to this job (it must have
    /// been reclaimed un-stolen), and the body must not have run yet.
    pub unsafe fn run_inline(&self) -> R {
        let f = (*this_f(self)).take().expect("job executed twice");
        f()
    }

    /// Takes the result after the latch is set.
    ///
    /// # Safety
    ///
    /// Callable only after [`StackJob::latch`] reads set (the result cell
    /// is written before the latch release) and at most once.
    pub unsafe fn take_result(&self) -> JobResult<R> {
        (*this_result(self))
            .take()
            .expect("latch set but no result")
    }
}

// Small helpers to keep the unsafe blocks readable.
unsafe fn this_f<F, R>(job: &StackJob<F, R>) -> *mut Option<F> {
    job.f.get()
}
unsafe fn this_result<F, R>(job: &StackJob<F, R>) -> *mut Option<JobResult<R>> {
    job.result.get()
}

/// A heap-allocated fire-and-forget job (scoped spawns, `install`, and
/// external submissions). The closure is responsible for any completion
/// signaling.
#[repr(C)]
pub struct HeapJob<F> {
    header: JobHeader,
    f: Option<F>,
}

impl<F> HeapJob<F>
where
    F: FnOnce() + Send,
{
    /// Boxes the closure and leaks it as a [`JobRef`]; the job frees
    /// itself when executed.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the job is executed exactly once, and —
    /// because `F` carries no `'static` bound — that everything the
    /// closure borrows outlives that execution (scopes and `install`
    /// enforce this by blocking on a latch the job sets).
    pub unsafe fn into_job_ref(f: F) -> JobRef {
        let boxed = Box::new(HeapJob {
            header: JobHeader {
                execute: Self::execute_erased,
            },
            f: Some(f),
        });
        JobRef(Box::into_raw(boxed) as *const JobHeader)
    }

    unsafe fn execute_erased(header: *const JobHeader) {
        let mut boxed = Box::from_raw(header as *mut Self);
        let f = boxed.f.take().expect("heap job executed twice");
        f();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_job_execute_sets_latch_and_result() {
        let job = StackJob::new(|| 21 * 2);
        let r = unsafe { job.as_job_ref() };
        assert!(!job.latch.probe());
        unsafe { r.execute() };
        assert!(job.latch.probe());
        match unsafe { job.take_result() } {
            JobResult::Ok(v) => assert_eq!(v, 42),
            JobResult::Panic(_) => panic!("unexpected panic"),
        }
    }

    #[test]
    fn stack_job_run_inline() {
        let job = StackJob::new(|| "hi".len());
        assert_eq!(unsafe { job.run_inline() }, 2);
        assert!(!job.latch.probe(), "inline run skips the latch");
    }

    #[test]
    fn stack_job_captures_panic() {
        let job = StackJob::new(|| -> u32 { panic!("boom") });
        unsafe { job.as_job_ref().execute() };
        assert!(job.latch.probe());
        match unsafe { job.take_result() } {
            JobResult::Panic(p) => {
                let msg = p.downcast_ref::<&str>().copied().unwrap_or("");
                assert_eq!(msg, "boom");
            }
            JobResult::Ok(_) => panic!("panic was not captured"),
        }
    }

    #[test]
    fn heap_job_runs_and_frees() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let hit = Arc::new(AtomicBool::new(false));
        let h2 = Arc::clone(&hit);
        let job = unsafe {
            HeapJob::into_job_ref(move || {
                h2.store(true, Ordering::SeqCst);
            })
        };
        unsafe { job.execute() };
        assert!(hit.load(Ordering::SeqCst));
    }

    #[test]
    fn job_ref_word_roundtrip() {
        let job = StackJob::new(|| ());
        let r = unsafe { job.as_job_ref() };
        let w = r.to_word();
        assert_eq!(JobRef::from_word(w), r);
    }
}
