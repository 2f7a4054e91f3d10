//! qdt-parallel: a shared deterministic worker pool and chunked kernel
//! execution for the dense simulation backends.
//!
//! The paper's array representation (Sec. II) is the baseline every other
//! data structure is judged against, so its gate loops should "run as fast
//! as the hardware allows". This crate supplies the machinery without any
//! external dependency:
//!
//! * [`WorkerPool`] — a small pool of persistent, condvar-parked worker
//!   threads. The calling thread always participates, so a pool of `n`
//!   threads spawns only `n − 1` workers and `threads = 1` degenerates to
//!   plain sequential execution with zero overhead.
//! * [`WorkerPool::shared`] — process-wide pools keyed by thread count, so
//!   the array, density, and trajectory engines all reuse the same OS
//!   threads instead of spawning per engine (or worse, per gate).
//! * [`KernelContext`] — the knobs a kernel call site needs: which pool
//!   (if any), the sequential-fallback threshold, and an optional
//!   [`TelemetrySink`] for per-worker spans and the
//!   `parallel.worker.busy_us` utilisation histogram.
//! * [`SharedSlice`] — an unsafe escape hatch that lets disjoint index
//!   sets of one slice be written from several workers at once; the gate
//!   kernels in `qdt-array` uphold the disjointness invariant by
//!   partitioning the amplitude index space on the target-qubit stride.
//!
//! # Determinism
//!
//! Parallel runs are *bit-identical* to sequential runs by construction,
//! not merely approximately equal: every (index-)item is transformed by
//! the same floating-point expressions regardless of which worker claims
//! it, workers write disjoint locations, and no floating-point reduction
//! is ever parallelised (Born-weight sums, norms, and probabilities stay
//! sequential in the engines). Chunk boundaries therefore affect only
//! scheduling, never arithmetic. `tests/parallel_agreement.rs` in the
//! workspace root enforces this with exact `==` comparisons across thread
//! counts.
//!
//! Telemetry honours the same rule: inside gate application the pool
//! records only spans and a `_us`-suffixed histogram — both are excluded
//! from the deterministic gate metric stream — so metric logs stay
//! bit-identical across worker counts.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use qdt_telemetry::TelemetrySink;

/// Span category and histogram metric recorded by chunked pool runs.
pub const WORKER_SPAN_CATEGORY: &str = "parallel";
/// Histogram of per-worker busy time in microseconds (wall-clock, so it
/// is excluded from the deterministic gate metric stream).
pub const WORKER_BUSY_METRIC: &str = "parallel.worker.busy_us";

/// Default sequential-fallback threshold, in weighted work items (see
/// [`KernelContext::run`]): below this, handing a kernel to the pool
/// costs more than the extra cores buy, so it runs inline.
///
/// Measured with `repro parallel` (DESIGN.md §11): forcing every kernel
/// onto two threads of a 2-vCPU host made plain GHZ slower up to 16
/// qubits (2¹⁵ amplitude pairs per gate), about even at 18–20 and
/// faster at 22, and made fused QFT slower at 12 qubits (largest group
/// 204,800 items) and faster from 14 (983,040). 2¹⁹ sits above every
/// size that loses, so QFT-12, random-12, a 1000-qubit tableau's row
/// blocks (32,768) and an 8-qubit density channel pass (32,768) all
/// stay inline.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 19;

/// How many chunks each thread gets on average in a chunked run; > 1 so
/// the atomic-counter scheduler can balance uneven progress.
const CHUNKS_PER_THREAD: usize = 4;

/// The most threads or workers any spec, argument or `QDT_THREADS` may
/// request: far past any core count, far below what makes the OS refuse
/// to spawn pool threads (which aborts the process).
pub const MAX_THREADS: usize = 256;

/// The host's core count as `std::thread::available_parallelism`
/// reports it (affinity and cgroup quota included), bounded by
/// [`MAX_THREADS`]; 1 when the query fails. Read once: the query reads
/// cgroup files and costs tens of microseconds, and every engine built
/// from a bare spec asks for it.
#[must_use]
pub fn host_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
    })
}

/// The kernel thread count of an engine built without an explicit
/// `threads=`: the `QDT_THREADS` environment variable when it parses to
/// 1..=[`MAX_THREADS`], else [`host_threads`]. Kernels below
/// [`DEFAULT_PARALLEL_THRESHOLD`] stay inline whatever this returns.
#[must_use]
pub fn default_threads() -> usize {
    std::env::var("QDT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| (1..=MAX_THREADS).contains(&n))
        .unwrap_or_else(host_threads)
}

thread_local! {
    /// Set while this thread is executing a pool job, so nested pool
    /// calls (e.g. a trajectory worker whose substrate engine is itself
    /// parallel) degrade to sequential execution instead of deadlocking
    /// on the pool they are already running on.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the nested-job marker set on this thread.
fn with_pool_marker<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_POOL_JOB.set(self.0);
        }
    }
    let _reset = Reset(IN_POOL_JOB.get());
    IN_POOL_JOB.set(true);
    f()
}

/// A lifetime-erased pointer to the job of the current epoch, plus its
/// schedule. Only ever dereferenced between job installation and the
/// caller's completion wait, during which the referents are alive.
#[derive(Clone, Copy)]
struct JobHandle {
    job: *const (dyn Fn(usize) + Sync),
    sink: *const TelemetrySink,
    chunks: usize,
    /// `true`: thread slot `k` runs `job(k)` exactly once (per-worker
    /// mode); `false`: chunk indices are claimed from the atomic counter.
    fixed: bool,
}

// SAFETY: the raw pointers are only dereferenced while the launch that
// installed them is still blocked waiting for completion, so the
// referenced closures outlive every use; the closures are `Sync`.
#[allow(unsafe_code)]
unsafe impl Send for JobHandle {}

struct PoolState {
    epoch: u64,
    job: Option<JobHandle>,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
    next: AtomicUsize,
}

impl PoolShared {
    /// Executes `handle`'s job on thread slot `slot` (0 = caller).
    #[allow(unsafe_code)]
    fn execute(&self, handle: JobHandle, slot: usize) {
        // SAFETY: see `JobHandle` — the pointers are live for the whole
        // epoch this call belongs to.
        let job: &(dyn Fn(usize) + Sync) = unsafe { &*handle.job };
        let sink: Option<&TelemetrySink> = unsafe { handle.sink.as_ref() };
        if handle.fixed {
            if slot < handle.chunks {
                let _frame = qdt_telemetry::profile_frame("parallel:worker-job");
                job(slot);
            }
            return;
        }
        let _frame = qdt_telemetry::profile_frame("parallel:chunk-loop");
        let mut span = None;
        let mut first_claim: Option<Instant> = None;
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= handle.chunks {
                break;
            }
            if let Some(s) = sink {
                if span.is_none() {
                    span = Some(s.tracer().span_in(WORKER_SPAN_CATEGORY, "worker"));
                    first_claim = Some(Instant::now());
                }
            }
            job(chunk);
        }
        if let (Some(s), Some(t0)) = (sink, first_claim) {
            s.metrics()
                .histogram_record(WORKER_BUSY_METRIC, t0.elapsed().as_secs_f64() * 1e6);
        }
        drop(span);
    }
}

/// A pool of persistent worker threads executing chunked or per-worker
/// jobs; see the crate docs for the determinism contract.
///
/// The calling thread participates in every run, so `WorkerPool::new(1)`
/// spawns no threads at all and executes jobs inline.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Serialises launches: the pool runs one job at a time.
    launch_lock: Mutex<()>,
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` total threads (`threads − 1` spawned
    /// workers plus the caller). `threads` is clamped to at least 1.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for slot in 1..threads {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("qdt-pool-{slot}"))
                .spawn(move || worker_loop(&shared, slot))
                .expect("spawning pool worker");
            handles.push(handle);
        }
        WorkerPool {
            shared,
            launch_lock: Mutex::new(()),
            threads,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide shared pool with `threads` total threads.
    ///
    /// Pools are keyed by thread count and live for the rest of the
    /// process, so every engine requesting `threads = n` reuses the same
    /// OS threads.
    #[must_use]
    pub fn shared(threads: usize) -> Arc<WorkerPool> {
        static POOLS: OnceLock<Mutex<BTreeMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let threads = threads.max(1);
        let mut pools = POOLS
            .get_or_init(|| Mutex::new(BTreeMap::new()))
            .lock()
            .expect("pool registry poisoned");
        Arc::clone(
            pools
                .entry(threads)
                .or_insert_with(|| Arc::new(WorkerPool::new(threads))),
        )
    }

    /// Total thread count of this pool (spawned workers + caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(c)` exactly once for every chunk index `c < chunks`,
    /// distributing chunks over the pool through an atomic counter. The
    /// caller participates and the call returns only when every chunk has
    /// finished.
    ///
    /// With a sink, each participating thread wraps its claim loop in a
    /// `parallel/worker` span and records its busy time into the
    /// [`WORKER_BUSY_METRIC`] histogram. Runs that fall back to inline
    /// execution (single-threaded pool, one chunk, or a nested call from
    /// inside another pool job) record nothing.
    ///
    /// # Panics
    ///
    /// Re-raises (caller) or reports (worker) any panic from `job`.
    pub fn run_chunks(
        &self,
        chunks: usize,
        sink: Option<&TelemetrySink>,
        job: &(dyn Fn(usize) + Sync),
    ) {
        if chunks == 0 {
            return;
        }
        if self.threads <= 1 || chunks == 1 || IN_POOL_JOB.get() {
            for chunk in 0..chunks {
                job(chunk);
            }
            return;
        }
        self.launch(JobParams {
            chunks,
            sink,
            fixed: false,
            job,
        });
    }

    /// Runs `job(k)` exactly once for every `k < active`, with `k`
    /// pinned to a distinct pool thread (`k = 0` is the caller), and
    /// returns the results in worker order, so a fold over them is the
    /// same at any thread count. Used by the shot loop and the
    /// trajectory engine so each logical worker stripe runs on its own
    /// thread and traces as its own track.
    ///
    /// Unlike [`WorkerPool::run_chunks`] no pool-level telemetry is
    /// recorded; per-worker jobs do their own domain-specific tracing.
    ///
    /// # Panics
    ///
    /// Panics if `active` exceeds the pool's thread count, and re-raises
    /// any panic from `job`.
    pub fn run_per_worker<T: Send>(
        &self,
        active: usize,
        job: &(dyn Fn(usize) -> T + Sync),
    ) -> Vec<T> {
        assert!(
            active <= self.threads,
            "run_per_worker: {active} workers exceed pool of {} threads",
            self.threads
        );
        if self.threads <= 1 || active <= 1 || IN_POOL_JOB.get() {
            return (0..active).map(job).collect();
        }
        // One slot per worker; each worker locks only its own.
        let slots: Vec<Mutex<Option<T>>> = (0..active).map(|_| Mutex::new(None)).collect();
        self.launch(JobParams {
            chunks: active,
            sink: None,
            fixed: true,
            job: &|k| {
                let out = job(k);
                *slots[k].lock().expect("worker slot poisoned") = Some(out);
            },
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker slot poisoned")
                    .expect("worker slot unfilled")
            })
            .collect()
    }

    /// Installs a job for one epoch, participates, waits for all workers.
    #[allow(unsafe_code)]
    fn launch(&self, params: JobParams<'_>) {
        // SAFETY: the reference is only reachable through `JobHandle`,
        // whose pointers this function stops exposing (clears `job` and
        // returns) before the borrow expires.
        let job: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(params.job) };
        let handle = JobHandle {
            job,
            sink: params.sink.map_or(std::ptr::null(), std::ptr::from_ref),
            chunks: params.chunks,
            fixed: params.fixed,
        };
        let guard = self.launch_lock.lock().expect("pool launch lock poisoned");
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(handle);
            st.remaining = self.threads - 1;
            st.panicked = false;
            self.shared.next.store(0, Ordering::SeqCst);
            self.shared.work.notify_all();
        }
        let caller_result = catch_unwind(AssertUnwindSafe(|| {
            with_pool_marker(|| self.shared.execute(handle, 0));
        }));
        let worker_panicked = {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            while st.remaining > 0 {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .expect("pool done condvar poisoned");
            }
            st.job = None;
            st.panicked
        };
        drop(guard);
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        assert!(!worker_panicked, "worker pool job panicked");
    }
}

/// Arguments of one [`WorkerPool::launch`], bundled to keep call sites
/// readable.
struct JobParams<'a> {
    chunks: usize,
    sink: Option<&'a TelemetrySink>,
    fixed: bool,
    job: &'a (dyn Fn(usize) + Sync),
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self
            .handles
            .lock()
            .expect("pool handles poisoned")
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// The main loop of a spawned pool worker occupying thread slot `slot`.
fn worker_loop(shared: &PoolShared, slot: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let handle = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(handle) = st.job {
                        seen_epoch = st.epoch;
                        break handle;
                    }
                }
                st = shared.work.wait(st).expect("pool work condvar poisoned");
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_pool_marker(|| shared.execute(handle, slot));
        }));
        let mut st = shared.state.lock().expect("pool state poisoned");
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Everything a parallel kernel call site needs: the pool (absent for
/// sequential execution), the sequential-fallback threshold, and an
/// optional telemetry sink for per-worker spans.
///
/// Cheap to clone; engines hold one and thread it into their data
/// structure's `*_with` kernel entry points.
#[derive(Clone, Debug)]
pub struct KernelContext {
    pool: Option<Arc<WorkerPool>>,
    threshold: usize,
    sink: Option<TelemetrySink>,
}

impl Default for KernelContext {
    fn default() -> Self {
        KernelContext::sequential()
    }
}

impl KernelContext {
    /// A context that always executes inline on the calling thread.
    #[must_use]
    pub fn sequential() -> Self {
        KernelContext {
            pool: None,
            threshold: DEFAULT_PARALLEL_THRESHOLD,
            sink: None,
        }
    }

    /// A context backed by the shared pool of `threads` threads
    /// (`threads ≤ 1` yields a sequential context).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        KernelContext {
            pool: (threads > 1).then(|| WorkerPool::shared(threads)),
            threshold: DEFAULT_PARALLEL_THRESHOLD,
            sink: None,
        }
    }

    /// A context on [`default_threads`] threads: `QDT_THREADS` when set,
    /// else the host's cores.
    #[must_use]
    pub fn from_env() -> Self {
        KernelContext::with_threads(default_threads())
    }

    /// Replaces the sequential-fallback threshold (clamped to ≥ 1);
    /// kernels with fewer weighted items than this run inline.
    #[must_use]
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = threshold.max(1);
        self
    }

    /// Total thread count this context schedules onto.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// The sequential-fallback threshold in weighted items.
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Attaches `sink` (if enabled) so chunked runs record per-worker
    /// spans and the utilisation histogram.
    pub fn set_telemetry(&mut self, sink: &TelemetrySink) {
        self.sink = sink.enabled_clone();
    }

    /// Partitions `0..items` into contiguous chunks and runs `job` over
    /// each chunk, on the pool when `items × weight` reaches the
    /// threshold and inline otherwise.
    ///
    /// `weight` is the relative cost of one item (1 for an amplitude
    /// pair, 2 for a quad of density-matrix entries) so the threshold
    /// compares total work, not item counts. Chunk boundaries are a pure
    /// scheduling artefact: `job` must give bit-identical results for any
    /// partition of the index space, which holds whenever per-item work
    /// is independent and writes are disjoint.
    pub fn run(&self, items: usize, weight: usize, job: &(dyn Fn(Range<usize>) + Sync)) {
        let parallel = self
            .pool
            .as_ref()
            .filter(|_| items.saturating_mul(weight.max(1)) >= self.threshold);
        let Some(pool) = parallel else {
            job(0..items);
            return;
        };
        let chunks = (pool.threads() * CHUNKS_PER_THREAD).min(items).max(1);
        let per = items.div_ceil(chunks);
        let chunks = items.div_ceil(per.max(1));
        pool.run_chunks(chunks, self.sink.as_ref(), &|chunk| {
            let start = chunk * per;
            job(start..items.min(start + per));
        });
    }
}

/// A raw view of a mutable slice that can be shared across pool workers
/// writing *disjoint* indices.
///
/// This is the one unsafe escape hatch of the crate: the compiler cannot
/// check disjointness, so every kernel using it documents its partition
/// argument (see DESIGN.md §11).
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is only through `get`/`set`, whose callers promise
// disjoint index sets per thread; `T: Send` keeps the values movable
// across threads.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<T> Clone for SharedSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps `slice` for shared disjoint writes.
    #[must_use]
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            len: slice.len(),
            ptr: slice.as_mut_ptr(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds, and no other thread may be writing index
    /// `i` concurrently.
    #[allow(unsafe_code)]
    #[must_use]
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        // SAFETY: caller guarantees bounds and exclusive access to `i`.
        unsafe { *self.ptr.add(i) }
    }

    /// Writes `value` into element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds, and no other thread may be reading or
    /// writing index `i` concurrently.
    #[allow(unsafe_code)]
    pub unsafe fn set(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        // SAFETY: caller guarantees bounds and exclusive access to `i`.
        unsafe {
            *self.ptr.add(i) = value;
        }
    }

    /// The raw base pointer of the underlying slice, for kernels that
    /// issue wide (SIMD) loads and stores spanning several consecutive
    /// elements at once — per-element [`SharedSlice::get`]/
    /// [`SharedSlice::set`] cannot express a single 256-bit access.
    ///
    /// Every dereference through the returned pointer must uphold the
    /// same contract as `get`/`set`: stay in bounds and touch only
    /// indices the calling worker owns under the kernel's disjoint
    /// partition.
    #[must_use]
    pub fn as_mut_ptr(&self) -> *mut T {
        self.ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn chunked_run_covers_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        let counts: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        pool.run_chunks(97, None, &|c| {
            counts[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn per_worker_run_covers_every_slot_exactly_once() {
        let pool = WorkerPool::new(4);
        let counts: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        pool.run_per_worker(4, &|k| {
            counts[k].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn per_worker_results_come_back_in_worker_order() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let squares = pool.run_per_worker(threads, &|k| k * k);
            let expect: Vec<usize> = (0..threads).map(|k| k * k).collect();
            assert_eq!(squares, expect);
        }
        // Inside a pool job the workers run inline, still in order.
        let outer = WorkerPool::new(2);
        let nested = outer.run_per_worker(2, &|k| outer.run_per_worker(2, &|j| 10 * k + j));
        assert_eq!(nested, [vec![0, 1], vec![10, 11]]);
    }

    #[test]
    fn nested_runs_fall_back_to_inline_execution() {
        let outer = WorkerPool::shared(3);
        let total = AtomicU32::new(0);
        outer.run_chunks(6, None, &|_| {
            let inner = WorkerPool::shared(3);
            inner.run_chunks(5, None, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(16, None, &|c| assert!(c != 7, "boom"));
        }));
        assert!(result.is_err());
        // The pool stays usable afterwards.
        let hits = AtomicU32::new(0);
        pool.run_chunks(8, None, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn shared_pools_are_reused_by_thread_count() {
        let a = WorkerPool::shared(5);
        let b = WorkerPool::shared(5);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), 5);
    }

    #[test]
    fn context_partitions_cover_the_index_space() {
        let ctx = KernelContext::with_threads(4).with_threshold(1);
        let counts: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        ctx.run(1000, 1, &|range| {
            for i in range {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn context_below_threshold_runs_inline() {
        let ctx = KernelContext::with_threads(4); // default threshold
        let sum = AtomicU32::new(0);
        ctx.run(10, 1, &|range| {
            assert_eq!(range, 0..10, "small runs must stay one chunk");
            for _ in range {
                sum.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn sequential_context_reports_one_thread() {
        let ctx = KernelContext::sequential();
        assert_eq!(ctx.threads(), 1);
        assert_eq!(KernelContext::with_threads(1).threads(), 1);
        assert_eq!(KernelContext::with_threads(4).threads(), 4);
    }

    #[test]
    fn chunked_run_records_balanced_spans_and_busy_histogram() {
        let sink = TelemetrySink::new();
        let mut ctx = KernelContext::with_threads(4).with_threshold(1);
        ctx.set_telemetry(&sink);
        ctx.run(4096, 1, &|range| {
            std::hint::black_box(range.len());
        });
        let events = sink.tracer().events();
        let begins = events
            .iter()
            .filter(|e| matches!(e.kind, qdt_telemetry::TraceEventKind::Begin))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, qdt_telemetry::TraceEventKind::End))
            .count();
        assert!(begins >= 1, "at least the caller opened a span");
        assert_eq!(begins, ends, "unbalanced pool spans");
        match sink.metrics().get(WORKER_BUSY_METRIC) {
            Some(qdt_telemetry::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, begins as u64);
            }
            other => panic!("missing busy histogram: {other:?}"),
        }
    }

    #[test]
    fn shared_slice_round_trips_disjoint_writes() {
        let mut data = vec![0u64; 64];
        let view = SharedSlice::new(&mut data);
        let pool = WorkerPool::new(3);
        pool.run_chunks(64, None, &|i| {
            // SAFETY: each chunk index i is claimed exactly once.
            #[allow(unsafe_code)]
            unsafe {
                view.set(i, i as u64 * 3);
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn shared_slice_exposes_the_base_pointer() {
        let mut data = vec![1.0f64, 2.0, 3.0];
        let ptr = data.as_mut_ptr();
        let view = SharedSlice::new(&mut data);
        assert_eq!(view.as_mut_ptr(), ptr);
        assert_eq!(view.len(), 3);
    }

    #[test]
    fn env_default_threads_parses_and_falls_back() {
        // No other test in this binary touches the variable.
        std::env::remove_var("QDT_THREADS");
        assert_eq!(default_threads(), host_threads());
        std::env::set_var("QDT_THREADS", "6");
        assert_eq!(default_threads(), 6);
        std::env::set_var("QDT_THREADS", "zero");
        assert_eq!(default_threads(), host_threads());
        std::env::set_var("QDT_THREADS", "0");
        assert_eq!(default_threads(), host_threads());
        std::env::set_var("QDT_THREADS", "1000000");
        assert_eq!(default_threads(), host_threads());
        std::env::remove_var("QDT_THREADS");
    }
}
