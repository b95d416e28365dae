//! A minimal persistent worker pool with an epoch barrier — the
//! scheduling substrate of [`crate::PooledSimulator`].
//!
//! `std::thread::scope` pays two full thread spawn/join scatters per
//! round (one per stage), which dominates wall clock below ~10⁴ nodes.
//! [`WorkerPool`] spawns its helper threads **once** and parks them on a
//! condvar; each parallel stage then costs one epoch publication (wake
//! all helpers) and one completion wait — two barrier waits per round
//! instead of two scatters.
//!
//! The pool is deliberately tiny: one job slot, a generation counter and
//! two condvars. The calling thread always executes worker 0's share
//! inline, so a one-shard pool spawns no threads at all and runs with
//! zero synchronization.
//!
//! # Panic propagation
//!
//! A panic inside a helper's share is caught, stored, and re-raised on
//! the calling thread after **all** workers have finished the stage
//! (matching `std::thread::scope`'s behavior, and required for safety:
//! the job borrows the caller's stack frame). Misbehaving node programs
//! therefore panic identically on this backend and on the sequential
//! one — see the engine-contract docs in `powersparse_congest::engine`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The job published to helpers for one scatter: the stage body, called
/// with the worker index. The `'static` lifetime is a lie told once, in
/// [`WorkerPool::scatter`], and made true by never returning before
/// every helper has finished the job.
type Job = &'static (dyn Fn(usize) + Sync);

/// Coordination state shared between the caller and the helper threads.
struct PoolState {
    /// Barrier generation: helpers run one job per increment.
    epoch: u64,
    /// The current job (present exactly while an epoch is in progress).
    job: Option<Job>,
    /// Helpers still working on the current epoch.
    remaining: usize,
    /// First panic payload raised by a helper in the current epoch.
    panic: Option<Box<dyn Any + Send>>,
    /// Set once, on drop: helpers exit instead of waiting for work.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Helpers wait here for the next epoch (or shutdown).
    work_cv: Condvar,
    /// The caller waits here for `remaining` to reach zero.
    done_cv: Condvar,
}

/// A persistent pool of `workers - 1` helper threads plus the calling
/// thread, executing one parallel stage per [`WorkerPool::scatter`].
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared").finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool executing stages with `workers` parallel shares.
    /// Spawns `workers - 1` helper threads (the caller is worker 0); a
    /// one-worker pool spawns nothing and runs every stage inline.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("powersparse-pool-{w}"))
                    .spawn(move || helper_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            workers,
        }
    }

    /// Number of parallel shares per stage (helpers + the caller).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes one parallel stage: `f(w)` runs once for every worker
    /// index `w` in `0..workers()`, concurrently, and `scatter` returns
    /// only after every share has finished. The caller runs share 0
    /// inline. If any share panics, the first payload is re-raised here
    /// — after the barrier, so `f`'s borrows never escape.
    pub fn scatter(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            return f(0);
        }
        // SAFETY: the `'static` is erased only for the helpers' benefit;
        // this function waits below until `remaining == 0`, i.e. until no
        // helper can still be executing (or about to execute) the job,
        // before returning. The referent therefore outlives every use.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            debug_assert_eq!(st.remaining, 0, "scatter while a stage is running");
            st.job = Some(job);
            st.remaining = self.handles.len();
            st.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        // The caller's own share, with its panic deferred past the
        // barrier (unwinding while helpers still borrow the job is UB).
        let own = catch_unwind(AssertUnwindSafe(|| f(0)));
        let helper_panic = {
            let mut st = self.shared.state.lock().expect("pool lock");
            while st.remaining > 0 {
                st = self.shared.done_cv.wait(st).expect("pool lock");
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The helper thread body: wait for the next epoch, run the job's share
/// `w`, report completion; repeat until shutdown.
fn helper_loop(shared: &PoolShared, w: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch published without a job");
                }
                st = shared.work_cv.wait(st).expect("pool lock");
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| job(w)));
        let mut st = shared.state.lock().expect("pool lock");
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

/// A value on cache lines of its own (128 bytes: x86 prefetches lines
/// in pairs). Workers write their own shard's vector headers and core
/// counters once per message; packed side by side in one vector, the
/// headers of two shards can share a line, which then bounces between
/// the workers' cores on every message. Whether they share one depends
/// on where the allocator puts the vector, so the cost changes from
/// one engine to the next.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A shared view of a mutable slice whose elements are accessed at
/// provably disjoint indices by different workers of one scatter.
/// Wrapping an existing buffer costs nothing — no per-round allocation,
/// unlike collecting work items into an owned vector.
pub(crate) struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: distinct workers access distinct elements (the `get`
// contract), and `T: Send` makes handing each element's exclusive
// access to another thread sound.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wraps `slice` for disjoint per-index access.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Exclusive access to element `i`.
    ///
    /// # Safety
    ///
    /// Within one scatter, each index must be accessed by at most one
    /// worker at a time.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self, i: usize) -> &mut T {
        assert!(i < self.len, "disjoint index out of bounds");
        &mut *self.ptr.add(i)
    }
}

/// A shared view of a mutable slice split along caller-provided
/// non-overlapping ranges, one chunk per worker, without allocating a
/// vector of sub-slices per scatter.
pub(crate) struct DisjointChunks<'a, T> {
    ptr: *mut T,
    len: usize,
    ranges: &'a [std::ops::Range<usize>],
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: distinct workers take distinct (non-overlapping) ranges, and
// `T: Send` makes handing a chunk's exclusive access to another thread
// sound.
unsafe impl<T: Send> Sync for DisjointChunks<'_, T> {}

impl<'a, T> DisjointChunks<'a, T> {
    /// Wraps `slice` for per-worker access along `ranges` (which must be
    /// pairwise disjoint and within bounds; ascending contiguous layout
    /// ranges are checked in debug builds). An **empty** slice is
    /// accepted regardless of the ranges and yields empty chunks — the
    /// per-edge counter arrays are empty when per-edge accounting is
    /// disabled, and the transfer stages branch on chunk emptiness.
    pub fn new(slice: &'a mut [T], ranges: &'a [std::ops::Range<usize>]) -> Self {
        debug_assert!(
            ranges.windows(2).all(|w| w[0].end <= w[1].start),
            "ranges must be ascending and disjoint"
        );
        debug_assert!(slice.is_empty() || ranges.iter().all(|r| r.end <= slice.len()));
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            ranges,
            _marker: std::marker::PhantomData,
        }
    }

    /// Exclusive access to chunk `w` (= `slice[ranges[w]]`, or an empty
    /// slice when the wrapped buffer is empty).
    ///
    /// # Safety
    ///
    /// Within one scatter, each chunk must be accessed by at most one
    /// worker at a time.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn chunk(&self, w: usize) -> &mut [T] {
        // Index the range table first so a bad worker index panics in
        // both modes, not just when the buffer is populated.
        let r = self.ranges[w].clone();
        if self.len == 0 {
            return Default::default();
        }
        assert!(r.start <= r.end && r.end <= self.len, "chunk out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_runs_every_share_and_reuses_threads() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let hits = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.scatter(&|w| {
                assert!(w < 4);
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let mut touched = false;
        // A non-Sync borrow would not compile; prove inline execution by
        // observing the write immediately after.
        let cell = std::sync::Mutex::new(&mut touched);
        pool.scatter(&|w| {
            assert_eq!(w, 0);
            **cell.lock().unwrap() = true;
        });
        assert!(touched);
    }

    #[test]
    fn disjoint_slice_items_are_mutated_in_place() {
        let pool = WorkerPool::new(3);
        let mut items = vec![0u64; 3];
        let view = DisjointSlice::new(&mut items);
        pool.scatter(&|w| {
            // SAFETY: worker w touches only index w.
            *unsafe { view.get(w) } = w as u64 + 1;
        });
        assert_eq!(items, vec![1, 2, 3]);
    }

    #[test]
    fn disjoint_chunks_follow_their_ranges() {
        let pool = WorkerPool::new(3);
        let mut items = vec![0u64; 7];
        let ranges = [0usize..2, 2..2, 2..7];
        let view = DisjointChunks::new(&mut items, &ranges);
        pool.scatter(&|w| {
            // SAFETY: worker w touches only chunk w.
            for x in unsafe { view.chunk(w) } {
                *x = w as u64 + 1;
            }
        });
        assert_eq!(items, vec![1, 1, 3, 3, 3, 3, 3]);
    }

    #[test]
    fn padded_neighbours_never_share_a_line_pair() {
        // Two vector headers side by side: without the padding both fit
        // in one 64-byte line.
        let items: Vec<CachePadded<Vec<u8>>> = (0..3).map(|_| CachePadded::default()).collect();
        for pair in items.windows(2) {
            let (a, b) = (&pair[0] as *const _ as usize, &pair[1] as *const _ as usize);
            assert_eq!(a % 128, 0, "each element starts a 128-byte block");
            assert_eq!(b - a, 128, "and owns all of it");
        }
    }

    #[test]
    fn helper_panic_propagates_after_the_barrier() {
        let pool = WorkerPool::new(3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(&|w| {
                if w == 2 {
                    panic!("share 2 misbehaved");
                }
            });
        }))
        .expect_err("must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("share 2 misbehaved"), "{msg}");
        // The pool survives a panicked stage and keeps working.
        let hits = AtomicUsize::new(0);
        pool.scatter(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_panic_still_waits_for_helpers() {
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(&|w| {
                if w == 0 {
                    panic!("coordinator share failed");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("must propagate");
        // By the time scatter unwound, the helper had finished its share.
        assert_eq!(done.load(Ordering::Relaxed), 1);
        drop(err);
    }
}
