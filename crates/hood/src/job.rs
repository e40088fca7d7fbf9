//! Type-erased units of work.
//!
//! The ABP deque stores single machine words; a job is therefore
//! represented in the deque as a raw pointer to a structure whose first
//! field is a [`JobHeader`] — one word, one indirect call to execute,
//! exactly the paper's "deque of (pointers to) threads".
//!
//! Three concrete job kinds:
//! * [`StackJob`] — lives in the frame of a `join` call; the caller
//!   guarantees (by waiting on the latch) that the frame outlives any
//!   execution;
//! * [`InlineJob`] — a small closure stored by value, in a 64-byte body
//!   slot of its spawner's private stack: what `Scope::spawn` and
//!   `ScopeFifo::spawn_fifo` write. Its word is the slot's address and
//!   never reaches a thief: the owner that pops it runs it from the
//!   slot, moving the closure out as it starts, and exposure boxes it
//!   first (DESIGN.md § "Inline bodies");
//! * [`HeapJob`] — boxed, freed after execution. A spawn no longer
//!   allocates one: a `HeapJob` is made for a spawned closure too big or
//!   too aligned for a body slot, for an inline body as it is exposed to
//!   thieves, and for every `ThreadPool::install` and front-door job
//!   (`ThreadPool::spawn` / `spawn_batch`).

use crate::latch::SpinLatch;
use std::cell::UnsafeCell;
use std::mem::{align_of, size_of, MaybeUninit};
use std::panic::AssertUnwindSafe;
use std::ptr;

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

/// Closure words an [`InlineJob`] holds: with its ops pointer, one
/// 64-byte cache line.
const INLINE_WORDS: usize = 7;

/// What an [`InlineJob`] can do with the closure it holds, for the one
/// concrete type it was written with.
struct InlineOps {
    /// Moves the closure out of the body and calls it.
    run: unsafe fn(*const MaybeUninit<[usize; INLINE_WORDS]>),
    /// Moves the closure out of the body into a [`HeapJob`].
    boxed: unsafe fn(*const MaybeUninit<[usize; INLINE_WORDS]>) -> JobRef,
}

/// A fire-and-forget closure stored by value in a 64-byte body slot: an
/// ops pointer and up to seven words of closure. A slot has no
/// destructor, so whoever owns a written one must consume it exactly
/// once, by [`InlineJob::run`] or [`InlineJob::into_job_ref`]; both move
/// the closure out of the slot first, so the slot is free again the
/// moment either starts.
#[repr(C)]
pub struct InlineJob {
    ops: &'static InlineOps,
    data: MaybeUninit<[usize; INLINE_WORDS]>,
}

/// Bytes of one [`InlineJob`]: a body slot.
pub const INLINE_JOB_BYTES: usize = size_of::<InlineJob>();
const _: () = assert!(INLINE_JOB_BYTES == 64);

struct InlineVtable<F>(F);

impl<F> InlineVtable<F>
where
    F: FnOnce() + Send,
{
    const OPS: InlineOps = InlineOps {
        run: Self::run,
        boxed: Self::boxed,
    };

    /// # Safety
    ///
    /// `data` must hold an `F` written by [`InlineJob::write`] and not
    /// yet moved out; this moves it out.
    unsafe fn run(data: *const MaybeUninit<[usize; INLINE_WORDS]>) {
        (data as *const F).read()()
    }

    /// # Safety
    ///
    /// As for `run`.
    unsafe fn boxed(data: *const MaybeUninit<[usize; INLINE_WORDS]>) -> JobRef {
        HeapJob::into_job_ref((data as *const F).read())
    }
}

impl InlineJob {
    /// True when a closure of type `F` fits a body slot: at most seven
    /// words, aligned to at most a word. Larger or over-aligned closures
    /// are boxed at spawn time instead.
    pub const fn fits<F>() -> bool {
        size_of::<F>() <= size_of::<[usize; INLINE_WORDS]>()
            && align_of::<F>() <= align_of::<usize>()
    }

    /// Writes `f` into `slot` as an inline job.
    ///
    /// # Safety
    ///
    /// `slot` must be valid for a write of an `InlineJob`, `F` must
    /// [fit](InlineJob::fits), and the job is then owed exactly one
    /// consumption, under [`HeapJob::into_job_ref`]'s lifetime contract.
    #[inline]
    pub unsafe fn write<F>(slot: *mut InlineJob, f: F)
    where
        F: FnOnce() + Send,
    {
        debug_assert!(Self::fits::<F>());
        ptr::addr_of_mut!((*slot).ops).write(&InlineVtable::<F>::OPS);
        (ptr::addr_of_mut!((*slot).data) as *mut F).write(f);
    }

    /// Moves the closure out of `slot` and runs it, consuming the job.
    ///
    /// # Safety
    ///
    /// `slot` must hold a job written by [`InlineJob::write`] and not yet
    /// consumed.
    #[inline]
    pub unsafe fn run(slot: *const InlineJob) {
        ((*slot).ops.run)(ptr::addr_of!((*slot).data))
    }

    /// Moves the closure out of `slot` into a [`HeapJob`]: what exposure
    /// does to an inline entry, so that thieves only ever see boxed
    /// words.
    ///
    /// # Safety
    ///
    /// As for [`InlineJob::run`].
    pub unsafe fn into_job_ref(slot: *const InlineJob) -> JobRef {
        ((*slot).ops.boxed)(ptr::addr_of!((*slot).data))
    }
}

/// A job as a worker takes it to run: a word from a deque, or an inline
/// body still in its slot of the worker's own private stack. An inline
/// one must run before that stack's next push, which could overwrite or
/// move the slot; running it moves the closure out first, so the body's
/// own pushes are free to reuse it.
pub enum Job {
    /// A word from a deque or the injector.
    Ref(JobRef),
    /// A body slot of the running worker's own private stack.
    Inline(*const InlineJob),
}

impl Job {
    /// Runs the job.
    ///
    /// # Safety
    ///
    /// As for [`JobRef::execute`] or [`InlineJob::run`].
    #[inline]
    pub unsafe fn execute(self) {
        match self {
            Job::Ref(r) => r.execute(),
            Job::Inline(slot) => InlineJob::run(slot),
        }
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
    fn inline_job_runs_or_boxes_its_closure_once() {
        use std::sync::Arc;
        let token = Arc::new(());
        let mut slot = MaybeUninit::<InlineJob>::uninit();
        let t = Arc::clone(&token);
        unsafe { InlineJob::write(slot.as_mut_ptr(), move || drop(t)) };
        assert_eq!(Arc::strong_count(&token), 2);
        unsafe { InlineJob::run(slot.as_ptr()) };
        assert_eq!(Arc::strong_count(&token), 1, "ran and dropped once");

        let t = Arc::clone(&token);
        unsafe { InlineJob::write(slot.as_mut_ptr(), move || drop(t)) };
        let boxed = unsafe { InlineJob::into_job_ref(slot.as_ptr()) };
        assert_eq!(Arc::strong_count(&token), 2, "boxing does not run it");
        unsafe { Job::Ref(boxed).execute() };
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn fits_bounds_size_and_alignment() {
        #[repr(align(64))]
        struct Wide(#[allow(dead_code)] u8);
        assert!(InlineJob::fits::<[usize; 7]>());
        assert!(!InlineJob::fits::<[usize; 8]>());
        assert!(!InlineJob::fits::<Wide>());
    }

    #[test]
    fn job_ref_word_roundtrip() {
        let job = StackJob::new(|| ());
        let r = unsafe { job.as_job_ref() };
        let w = r.to_word();
        assert_eq!(JobRef::from_word(w), r);
    }
}
