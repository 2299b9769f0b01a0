//! Deterministic intra-step parallelism for the flooding workspace: a
//! retained worker pool plus disjoint-chunk dispatch helpers.
//!
//! # Why a hand-rolled pool
//!
//! The workspace builds offline (no rayon in the vendored dependency
//! set), and the engine's parallelism contract is stricter than "go
//! fast": results must be **deterministic for a fixed `(seed, n, chunk
//! layout)` whatever the thread count or scheduling**. The pool
//! therefore does one deliberately simple thing — execute task indices
//! `0..tasks` exactly once each, on long-lived worker threads plus the
//! dispatching thread, and not return until every task finished. All
//! ordering-sensitive merging (per-chunk RNG streams, canonical-order
//! event and output concatenation) lives in the callers; the pool only
//! guarantees exactly-once execution and completion.
//!
//! # Nested use
//!
//! Pools compose without oversubscribing cores: a `run` issued from
//! inside another pool task (or while the same pool is busy on another
//! thread) executes inline on the calling thread. Likewise a pool
//! *constructed* inside a pool task spawns no workers. Combined with
//! the deterministic task semantics this makes nesting safe: an inner
//! parallel step inside a [`run_ctx`]-driven trial sweep produces the
//! same results it would on its own pool, just without extra threads.
//!
//! # Safety
//!
//! This is the only *library* crate in the workspace that contains
//! `unsafe` code (`fastflood-core`, `-mobility` and `-spatial` all
//! `forbid(unsafe_code)`; the `floodd` binary additionally carries one
//! `unsafe` block registering its SIGTERM handler). The helpers below
//! expose safe APIs whose
//! soundness rests on two pool invariants: each task index is handed to
//! exactly one execution, and [`WorkerPool::run`] does not return (even
//! by unwinding) before every worker is done with the job.

#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;

/// Default worker-thread count: the `FASTFLOOD_THREADS` environment
/// variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
///
/// Everything that spins up parallelism by default — the engine's
/// `Parallelism::Chunked { threads: 0 }`, the `--threads` default of
/// the experiment and `scenarios` CLIs — resolves through this one
/// function, so one environment variable pins the whole process.
pub fn default_threads() -> usize {
    let env = std::env::var("FASTFLOOD_THREADS").ok();
    threads_from_env(env.as_deref())
}

/// The parse behind [`default_threads`], split out for testability:
/// `Some` positive integer wins, anything else falls back to available
/// parallelism.
fn threads_from_env(value: Option<&str>) -> usize {
    if let Some(v) = value {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    /// Whether the current thread is executing a pool task (worker
    /// threads while running a job, and the dispatcher while
    /// participating in its own dispatch). Nested `run` calls observe
    /// it and execute inline.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

fn in_pool_task() -> bool {
    IN_POOL_TASK.with(Cell::get)
}

/// Lifetime-erased pointer to the job closure; published to workers
/// under the state mutex.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared execution is the whole point)
// and the dispatcher keeps it alive until every worker has finished
// with it, so sending the pointer to worker threads is sound.
unsafe impl Send for Job {}

/// Mutex-guarded dispatch state of the pool.
struct JobState {
    /// Bumped per dispatch; workers track the last epoch they served.
    epoch: u64,
    /// The current job (`None` between dispatches).
    job: Option<Job>,
    /// Number of task indices in the current dispatch.
    tasks: usize,
    /// Workers that have not yet finished the current epoch.
    running: usize,
    /// The payload of the first task panic of the current epoch; the
    /// dispatcher re-raises it with `resume_unwind` after the barrier,
    /// so `panic::catch_unwind` callers above the pool see the original
    /// panic value (assert messages, custom payloads), not a generic
    /// pool error.
    panic_payload: Option<Box<dyn std::any::Any + Send + 'static>>,
    /// The pool is being dropped; workers exit.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<JobState>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The dispatcher waits here for `running == 0`.
    done: Condvar,
    /// Next task index to claim; `fetch_add` hands each index to
    /// exactly one claimant.
    next: AtomicUsize,
}

fn lock_state(shared: &PoolShared) -> MutexGuard<'_, JobState> {
    // a panic inside a job unwinds outside the lock, so poisoning can
    // only come from a panic we are already propagating — keep going
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker(shared: Arc<PoolShared>) {
    let mut seen = 0u64;
    loop {
        let (job, tasks) = {
            let mut st = lock_state(&shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    break;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            seen = st.epoch;
            (st.job.expect("a published epoch carries a job"), st.tasks)
        };
        // decrements `running` however the task loop exits; the
        // dispatcher blocks on it, which is what keeps the job pointer
        // alive for the whole loop below
        let _running = RunningGuard { shared: &shared };
        IN_POOL_TASK.with(|f| f.set(true));
        loop {
            let t = shared.next.fetch_add(1, Ordering::Relaxed);
            if t >= tasks {
                break;
            }
            // A panicking task must not kill the worker thread: the
            // pool would silently lose parallelism for the rest of its
            // life. Catch it, flag the epoch (the dispatcher re-raises
            // after the barrier), abandon the rest of this epoch's
            // claims, and keep serving future epochs.
            //
            // SAFETY: the dispatcher does not return before this guard
            // reports completion, so the closure is alive; `fetch_add`
            // hands this index to this execution only.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*job.0)(t) }));
            if let Err(payload) = outcome {
                let mut st = lock_state(&shared);
                // keep the first payload when several tasks panic in
                // one epoch; later ones are casualties of the same bug
                if st.panic_payload.is_none() {
                    st.panic_payload = Some(payload);
                }
                break;
            }
        }
        IN_POOL_TASK.with(|f| f.set(false));
    }
}

struct RunningGuard<'a> {
    shared: &'a PoolShared,
}

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.shared);
        st.running -= 1;
        if st.running == 0 {
            self.shared.done.notify_all();
        }
    }
}

/// A retained pool of worker threads executing task indices exactly
/// once each.
///
/// Construction spawns `threads - 1` long-lived workers (the
/// dispatching thread is the remaining worker), so per-dispatch cost is
/// a condvar wake rather than thread spawns — cheap enough to dispatch
/// two or three times per simulation step. Dropping the pool joins the
/// workers.
///
/// # Examples
///
/// ```
/// use fastflood_parallel::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.run(100, &|i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 99 * 100 / 2);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes dispatches; a busy pool runs late-comers inline.
    dispatch: Mutex<()>,
    threads: usize,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` total executors (`threads - 1`
    /// spawned workers plus the dispatching thread); `threads` is
    /// clamped to at least 1.
    ///
    /// A pool constructed from inside another pool's task spawns **no**
    /// workers (all its dispatches run inline), so nested parallel code
    /// cannot oversubscribe the machine.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let workers = if in_pool_task() { 0 } else { threads - 1 };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(JobState {
                epoch: 0,
                job: None,
                tasks: 0,
                running: 0,
                panic_payload: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fastflood-worker-{i}"))
                    .spawn(move || worker(sh))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            dispatch: Mutex::new(()),
            threads,
        }
    }

    /// The configured executor count (the `threads` passed to
    /// [`WorkerPool::new`], clamped to at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `job(t)` for every `t in 0..tasks`, each exactly once,
    /// distributed over the workers and the calling thread; returns
    /// when all have finished.
    ///
    /// Runs inline on the calling thread (same semantics, no cross-
    /// thread dispatch) when the pool has no workers, `tasks <= 1`, the
    /// call comes from inside a pool task, or the pool is busy with a
    /// dispatch from another thread.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked (after all tasks finished or
    /// unwound), re-raising the **first panicking task's own payload**
    /// on the dispatching thread via `resume_unwind` — so the original
    /// message survives — and leaving the pool fully reusable (every
    /// worker stays alive and serves subsequent dispatches).
    pub fn run(&self, tasks: usize, job: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.handles.is_empty() || tasks == 1 || in_pool_task() {
            for t in 0..tasks {
                job(t);
            }
            return;
        }
        let _dispatch = match self.dispatch.try_lock() {
            Ok(guard) => guard,
            // a previous dispatcher panicked mid-participation; its
            // epoch still completed (`WaitForWorkers` runs on unwind),
            // so the pool state is clean — recover the lock and keep
            // dispatching on the workers
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                for t in 0..tasks {
                    job(t);
                }
                return;
            }
        };
        let shared = &*self.shared;
        // SAFETY: pure lifetime erasure on the trait-object pointer; the
        // `WaitForWorkers` guard below keeps this call from returning
        // (even by unwinding) until every worker finished the epoch, so
        // the pointee outlives all uses.
        let job_ptr = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job)
        });
        {
            let mut st = lock_state(shared);
            st.job = Some(job_ptr);
            st.tasks = tasks;
            st.running = self.handles.len();
            st.panic_payload = None;
            // workers read `next` only after observing the new epoch
            // under the same mutex, so the relaxed store is ordered
            shared.next.store(0, Ordering::Relaxed);
            st.epoch = st.epoch.wrapping_add(1);
            shared.work.notify_all();
        }
        {
            // block until every worker reports done, whether the
            // participation loop below returns or unwinds
            let _wait = WaitForWorkers(shared);
            IN_POOL_TASK.with(|f| f.set(true));
            let _flag = ResetFlag;
            loop {
                let t = shared.next.fetch_add(1, Ordering::Relaxed);
                if t >= tasks {
                    break;
                }
                job(t);
            }
        }
        let payload = lock_state(shared).panic_payload.take();
        if let Some(payload) = payload {
            // re-raise the task's own panic value: callers that catch
            // and inspect (test harnesses, crash reporters) see the
            // original message, and the pool stays reusable
            std::panic::resume_unwind(payload);
        }
    }
}

/// Registry entries: live pools keyed by thread count, held weakly so
/// an idle process drops its workers.
type PoolRegistry = Vec<(usize, Weak<WorkerPool>)>;

/// Process-wide registry behind [`shared_pool`].
fn shared_registry() -> &'static Mutex<PoolRegistry> {
    static REGISTRY: OnceLock<Mutex<PoolRegistry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Returns the process-shared pool for `threads` executors, creating it
/// on first use.
///
/// Callers that each want "a pool with T threads" (several concurrent
/// sims in a job runtime, repeated sim constructions in a long-lived
/// server) get **one** set of worker threads instead of one per caller:
/// the registry hands out the same `Arc<WorkerPool>` for equal thread
/// counts as long as at least one caller keeps it alive, and lets the
/// workers exit when the last reference drops (the registry holds only
/// a [`Weak`]). Contention is safe by construction — a pool that is
/// busy with a dispatch from another thread runs late-comers inline
/// ([`WorkerPool::run`]), so sharing never changes results, only how
/// many OS threads exist.
///
/// Calls from inside a pool task bypass the registry and return a
/// private (workerless) pool: registering one would hand outer callers
/// a pool that can never parallelize.
///
/// # Examples
///
/// ```
/// use fastflood_parallel::shared_pool;
/// use std::sync::Arc;
///
/// let a = shared_pool(3);
/// let b = shared_pool(3);
/// assert!(Arc::ptr_eq(&a, &b), "equal thread counts share one pool");
/// assert!(!Arc::ptr_eq(&a, &shared_pool(2)));
/// ```
pub fn shared_pool(threads: usize) -> Arc<WorkerPool> {
    let threads = threads.max(1);
    if in_pool_task() {
        return Arc::new(WorkerPool::new(threads));
    }
    let mut reg = shared_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // drop registry entries whose pools have died before scanning, so
    // the list stays bounded by the number of distinct live counts
    reg.retain(|(_, weak)| weak.strong_count() > 0);
    if let Some(pool) = reg
        .iter()
        .find(|(t, _)| *t == threads)
        .and_then(|(_, weak)| weak.upgrade())
    {
        return pool;
    }
    let pool = Arc::new(WorkerPool::new(threads));
    reg.push((threads, Arc::downgrade(&pool)));
    pool
}

/// Clears the dispatcher's in-task flag however its participation loop
/// exits.
struct ResetFlag;

impl Drop for ResetFlag {
    fn drop(&mut self) {
        IN_POOL_TASK.with(|f| f.set(false));
    }
}

/// Blocks until `running == 0` and unpublishes the job — on the normal
/// path *and* when the dispatcher's own task panics, which is what
/// makes handing stack borrows to workers sound.
struct WaitForWorkers<'a>(&'a PoolShared);

impl Drop for WaitForWorkers<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.0);
        while st.running > 0 {
            st = self.0.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            // a worker that panicked already flagged the dispatch that
            // saw it; joining is best-effort shutdown
            let _ = h.join();
        }
    }
}

/// Raw pointer wrapper that asserts cross-thread shareability; every
/// use site guarantees disjoint access by construction.
///
/// The pointer is only reachable through [`SendPtr::get`] so closures
/// capture the whole wrapper (edition-2021 disjoint capture would
/// otherwise capture the raw field itself and lose the `Sync` assertion).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the helpers below hand each element/chunk to exactly one task
// execution, so shared captures of the base pointer never alias.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Calls `f(i, &mut ctx[i])` for every `i`, one task per context
/// element, distributed over the pool.
///
/// The canonical way to give each parallel task its own mutable
/// scratch (per-chunk RNG streams, per-shard output buffers) without
/// locks: contexts are disjoint by index, and the caller merges them
/// in deterministic (index) order afterwards.
///
/// # Examples
///
/// ```
/// use fastflood_parallel::{run_ctx, WorkerPool};
///
/// let pool = WorkerPool::new(2);
/// let mut squares = vec![0usize; 10];
/// run_ctx(&pool, &mut squares, |i, out| *out = i * i);
/// assert_eq!(squares[7], 49);
/// ```
pub fn run_ctx<Ctx, F>(pool: &WorkerPool, ctx: &mut [Ctx], f: F)
where
    Ctx: Send,
    F: Fn(usize, &mut Ctx) + Sync,
{
    let n = ctx.len();
    let base = SendPtr(ctx.as_mut_ptr());
    pool.run(n, &move |i| {
        // SAFETY: `run` hands each index in 0..n to exactly one task
        // execution, so element accesses are disjoint; `ctx` outlives
        // `run`, which does not return until all tasks finished.
        let item = unsafe { &mut *base.get().add(i) };
        f(i, item);
    });
}

/// Generates the `run_chunksN` family: N equal-length slices split into
/// fixed chunks of `chunk_len`, each chunk handed (with its private
/// context element) to exactly one pool task. One macro body so every
/// arity shares the same geometry, assertions, and safety argument.
macro_rules! define_run_chunks {
    ($(#[$attr:meta])* $name:ident, $($ty:ident: $p:ident),+) => {
        $(#[$attr])*
        pub fn $name<$($ty,)+ Ctx, F>(
            pool: &WorkerPool,
            chunk_len: usize,
            $($p: &mut [$ty],)+
            ctx: &mut [Ctx],
            f: F,
        ) where
            $($ty: Send,)+
            Ctx: Send,
            F: Fn(usize, $(&mut [$ty],)+ &mut Ctx) + Sync,
        {
            assert!(chunk_len > 0, "chunk length must be positive");
            let mut len: Option<usize> = None;
            $(match len {
                None => len = Some($p.len()),
                Some(n) => assert_eq!($p.len(), n, "chunked slices must agree on length"),
            })+
            let n = len.expect("at least one slice");
            let chunks = n.div_ceil(chunk_len).max(1);
            assert_eq!(ctx.len(), chunks, "one context per chunk");
            $(let $p = SendPtr($p.as_mut_ptr());)+
            let pctx = SendPtr(ctx.as_mut_ptr());
            pool.run(chunks, &move |i| {
                let lo = i * chunk_len;
                let hi = ((i + 1) * chunk_len).min(n);
                // SAFETY: chunk ranges are disjoint, each chunk index
                // executes exactly once, and the borrows outlive `run`.
                unsafe {
                    f(
                        i,
                        $(std::slice::from_raw_parts_mut($p.get().add(lo), hi - lo),)+
                        &mut *pctx.get().add(i),
                    );
                }
            });
        }
    };
}

define_run_chunks!(
    /// Splits two equal-length slices into fixed chunks of `chunk_len` and
    /// calls `f(chunk_index, a_chunk, b_chunk, &mut ctx[chunk_index])` for
    /// each, distributed over the pool.
    ///
    /// The chunk geometry is a pure function of the slice length (the last
    /// chunk may be short), **not** of the pool's thread count — callers
    /// rely on that for thread-count-independent determinism. `ctx` must
    /// hold exactly one element per chunk (`len.div_ceil(chunk_len).max(1)`).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree, `chunk_len` is zero, or
    /// `ctx` has the wrong length.
    run_chunks2, A: a, B: b
);

define_run_chunks!(
    /// Six-slice variant of [`run_chunks2`]: the SoA move-pass shape —
    /// three hot lanes, the boundary-flag scratch lane, the cold array,
    /// and positions, all split with one chunk geometry.
    #[allow(clippy::too_many_arguments)]
    run_chunks6, A: a, B: b, C: c, D: d, E: e, F2: f2
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in [1, 2, 4, 9] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}, threads {threads}");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_dispatches() {
        let pool = WorkerPool::new(3);
        let sum = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(17, &|i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.into_inner(), 50 * (16 * 17 / 2));
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("no tasks to run"));
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = WorkerPool::new(4);
        let inner = WorkerPool::new(4);
        let count = AtomicUsize::new(0);
        pool.run(8, &|_| {
            // from inside a pool task, the inner pool must execute
            // inline rather than cross-dispatching
            inner.run(4, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.into_inner(), 32);
    }

    #[test]
    fn pool_created_inside_task_spawns_no_workers() {
        let pool = WorkerPool::new(4);
        let worker_counts = Mutex::new(Vec::new());
        pool.run(2, &|_| {
            let nested = WorkerPool::new(8);
            worker_counts.lock().unwrap().push(nested.handles.len());
            nested.run(3, &|_| {});
        });
        for &w in worker_counts.lock().unwrap().iter() {
            assert_eq!(w, 0, "nested pools must not spawn workers");
        }
    }

    #[test]
    fn task_panic_propagates_to_dispatcher() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                if i == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the dispatcher");
        // the workers caught the panic and stayed alive: the pool keeps
        // its full parallelism, not just an inline fallback
        for h in &pool.handles {
            assert!(!h.is_finished(), "worker died on a task panic");
        }
        let sum = AtomicUsize::new(0);
        pool.run(10, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 45);
    }

    #[test]
    fn task_panic_payload_reaches_the_dispatcher_intact() {
        // the dispatcher must re-raise the task's own panic value, not
        // a generic "a task panicked" message: harnesses above the pool
        // downcast payloads to report what actually went wrong
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                if i == 21 {
                    panic!("distinctive payload {i}");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload survives as a string");
        assert_eq!(msg, "distinctive payload 21");
        // and the pool is immediately reusable at full parallelism
        for h in &pool.handles {
            assert!(!h.is_finished(), "worker died on a task panic");
        }
        let sum = AtomicUsize::new(0);
        pool.run(32, &|i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 32 * 33 / 2);
        // a second panicking dispatch still reports its own payload
        // (the first epoch's payload was consumed, not left behind)
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("second failure");
                }
            });
        }));
        let payload = result.expect_err("second panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("second failure")
        );
    }

    #[test]
    fn workers_survive_a_panic_while_another_task_is_in_flight() {
        // one task parks until the panicking task has run, so the
        // panic (wherever scheduling lands it — a worker or the
        // dispatcher) unwinds while another executor is mid-task; the
        // pool must come out with every worker alive either way
        let pool = WorkerPool::new(3);
        let released = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                if i == 0 {
                    while released.load(Ordering::Relaxed) == 0 {
                        std::thread::yield_now();
                    }
                } else if i == 63 {
                    released.store(1, Ordering::Relaxed);
                    panic!("boom mid-flight");
                }
            });
        }));
        assert!(result.is_err(), "the panic must propagate");
        for h in &pool.handles {
            assert!(!h.is_finished(), "worker died on a task panic");
        }
        // full follow-up dispatch on the same pool completes
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_ctx_gives_each_task_its_context() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0usize; 100];
        run_ctx(&pool, &mut out, |i, o| *o = i + 1);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, i + 1);
        }
    }

    #[test]
    fn run_chunks_partitions_disjointly() {
        let pool = WorkerPool::new(4);
        let n = 1000;
        let mut a = vec![0u32; n];
        let mut b = vec![0u64; n];
        let chunk = 64;
        let chunks = n.div_ceil(chunk);
        let mut ctx = vec![0usize; chunks];
        run_chunks2(&pool, chunk, &mut a, &mut b, &mut ctx, |i, ca, cb, n_in| {
            *n_in = ca.len();
            for (k, x) in ca.iter_mut().enumerate() {
                *x = (i * chunk + k) as u32;
            }
            for x in cb.iter_mut() {
                *x += i as u64 + 1;
            }
        });
        for (k, &x) in a.iter().enumerate() {
            assert_eq!(x, k as u32);
        }
        // every element written exactly once, by its own chunk
        for (k, &x) in b.iter().enumerate() {
            assert_eq!(x, (k / chunk) as u64 + 1);
        }
        assert_eq!(ctx.iter().sum::<usize>(), n, "chunk lengths cover n");
    }

    #[test]
    fn run_chunks2_handles_short_tail_and_empty_input() {
        let pool = WorkerPool::new(2);
        let mut a = vec![0u32; 10];
        let mut b = vec![0u32; 10];
        let mut ctx = vec![(0usize, 0usize); 3];
        run_chunks2(&pool, 4, &mut a, &mut b, &mut ctx, |i, ca, _cb, c| {
            *c = (i, ca.len());
        });
        assert_eq!(ctx, vec![(0, 4), (1, 4), (2, 2)]);

        let mut empty_a: Vec<u32> = Vec::new();
        let mut empty_b: Vec<u32> = Vec::new();
        let mut one = vec![0usize; 1];
        run_chunks2(
            &pool,
            4,
            &mut empty_a,
            &mut empty_b,
            &mut one,
            |_, ca, _, c| {
                *c = ca.len() + 7;
            },
        );
        assert_eq!(one[0], 7, "the empty input still runs its one chunk");
    }

    #[test]
    fn shared_pool_reuses_per_thread_count_and_expires() {
        // distinctive counts so parallel-running tests in this binary
        // don't race us on the same registry slots
        let a = shared_pool(5);
        let b = shared_pool(5);
        assert!(Arc::ptr_eq(&a, &b), "equal counts must share one pool");
        let c = shared_pool(7);
        assert!(!Arc::ptr_eq(&a, &c), "distinct counts get distinct pools");
        assert_eq!(c.threads(), 7);
        // both callers drop their references: the registry's weak entry
        // dies and the next request builds a fresh pool
        drop(a);
        drop(b);
        let d = shared_pool(5);
        assert_eq!(d.threads(), 5);
        let sum = AtomicUsize::new(0);
        d.run(11, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 55);
    }

    #[test]
    fn shared_pool_from_inside_a_task_is_private() {
        let outer = shared_pool(9);
        let inner_is_outer = Mutex::new(Vec::new());
        outer.run(4, &|_| {
            let inner = shared_pool(9);
            inner_is_outer
                .lock()
                .unwrap()
                .push((Arc::ptr_eq(&inner, &outer), inner.handles.len()));
            inner.run(2, &|_| {});
        });
        for &(same, workers) in inner_is_outer.lock().unwrap().iter() {
            assert!(!same, "in-task request must not hand back the busy pool");
            assert_eq!(workers, 0, "in-task pools must not spawn workers");
        }
        // and the private pool was not registered: the registry still
        // serves the original
        assert!(Arc::ptr_eq(&outer, &shared_pool(9)));
    }

    #[test]
    fn threads_from_env_parses_and_falls_back() {
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 8 ")), 8);
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(threads_from_env(Some("0")), fallback);
        assert_eq!(threads_from_env(Some("soup")), fallback);
        assert_eq!(threads_from_env(None), fallback);
    }

    #[test]
    fn debug_and_threads_accessors() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1, "thread count clamps to 1");
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        assert!(format!("{pool:?}").contains("WorkerPool"));
    }
}
