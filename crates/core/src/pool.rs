//! The persistent work-stealing worker pool behind every parallel path.
//!
//! Before this module existed, each parallel entry point
//! (`dc_exact_parallel_with`, `grid_peel_parallel`, and the since-deleted
//! chunked core sweep and `dds-shard` batch applies) re-spawned OS threads
//! through its own `thread::scope` block — measurably capping scaling at
//! small batch sizes (experiment E16). This module replaces all of them with **one**
//! process-wide pool ([`WorkerPool::global`], lazily sized from
//! `available_parallelism`, explicit sizes available for tests and
//! embeddings):
//!
//! * **per-worker deques + a shared injector** — tasks spawned *by* a pool
//!   worker land on its own deque (cheap, cache-warm); tasks submitted from
//!   outside land on the injector; idle workers drain their deque, then the
//!   injector, then steal from siblings (counted in `dds_pool_steals_total`);
//! * **park/unpark** — out-of-work workers park on a condvar
//!   (`dds_pool_parks_total`) and are woken per submission, so an idle pool
//!   costs nothing;
//! * **scoped submission** — [`WorkerPool::scope`] lets callers spawn
//!   closures borrowing stack data (the lifetime is erased internally and
//!   re-proven by an unconditional join-before-return, the same contract as
//!   `std::thread::scope`); panics inside tasks propagate to the scope
//!   owner after all siblings finished.
//!
//! The scope owner always participates (it runs its own queued tasks while
//! joining), so every scope makes progress even when all pool threads are
//! busy — including on a single-core host where the global pool has zero
//! background threads and everything degenerates to the serial path.
//! A task may block on a sibling that is already running — the exact
//! interval workers sleep on their queue's condvar only while another
//! worker holds an interval — but never on one still queued: with every
//! pool thread busy, a queued task runs only once its scope owner joins.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use dds_obs::{Counter, Registry};

/// A lifetime-erased queued closure. The erasure is sound because every
/// spawning scope joins before returning (see [`WorkerPool::scope`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    job: Job,
    scope: Arc<ScopeState>,
}

/// Join latch + panic slot of one [`PoolScope`].
struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            remaining: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }
}

/// Lifetime counters (the `dds_pool_*` series): standalone by default,
/// re-homed into a registry by [`WorkerPool::attach_obs`].
struct PoolObs {
    tasks: Counter,
    steals: Counter,
    parks: Counter,
}

struct PoolInner {
    injector: Mutex<VecDeque<Task>>,
    deques: Vec<Mutex<VecDeque<Task>>>,
    park_lock: Mutex<()>,
    park_cond: Condvar,
    shutdown: AtomicBool,
    /// Rotating start index for stealing, so victims spread evenly.
    steal_from: AtomicUsize,
    obs: Mutex<PoolObs>,
}

thread_local! {
    /// `(pool identity, worker index + 1)` of the pool thread running this
    /// thread's code, or `(0, 0)` off-pool. Identity keys the *inner*
    /// allocation so distinct pools never mistake each other's workers.
    static WORKER: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

impl PoolInner {
    fn identity(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn notify_one(&self) {
        // Taking the park lock orders this submission with any worker's
        // "queues are empty" re-check, so a wakeup is never lost.
        drop(self.park_lock.lock().expect("park lock poisoned"));
        self.park_cond.notify_one();
    }

    /// Queues a task: onto this worker's own deque when called from a pool
    /// thread of this very pool, onto the injector otherwise.
    fn submit(self: &Arc<Self>, task: Task) {
        let (pool_id, slot) = WORKER.get();
        if pool_id == self.identity() && slot > 0 {
            self.deques[slot - 1]
                .lock()
                .expect("deque poisoned")
                .push_back(task);
        } else {
            self.injector
                .lock()
                .expect("injector poisoned")
                .push_back(task);
        }
        self.notify_one();
    }

    /// Next task for worker `index`: own deque, then injector, then steal.
    fn find_task(&self, index: usize) -> Option<Task> {
        if let Some(t) = self.deques[index]
            .lock()
            .expect("deque poisoned")
            .pop_front()
        {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        let start = self.steal_from.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == index {
                continue;
            }
            if let Some(t) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                self.obs.lock().expect("obs poisoned").steals.inc();
                return Some(t);
            }
        }
        None
    }

    /// Removes one queued task belonging to `scope`, scanning the injector
    /// and every deque. Used by the scope owner while joining.
    fn take_scope_task(&self, scope: &Arc<ScopeState>) -> Option<Task> {
        let mut q = self.injector.lock().expect("injector poisoned");
        if let Some(pos) = q.iter().position(|t| Arc::ptr_eq(&t.scope, scope)) {
            return q.remove(pos);
        }
        drop(q);
        for deque in &self.deques {
            let mut q = deque.lock().expect("deque poisoned");
            if let Some(pos) = q.iter().position(|t| Arc::ptr_eq(&t.scope, scope)) {
                return q.remove(pos);
            }
        }
        None
    }

    fn has_queued_work(&self) -> bool {
        if !self.injector.lock().expect("injector poisoned").is_empty() {
            return true;
        }
        self.deques
            .iter()
            .any(|d| !d.lock().expect("deque poisoned").is_empty())
    }

    /// Runs one task to completion, catching a panic into its scope's slot
    /// (first panic wins) and retiring it from the scope latch either way.
    fn execute(&self, task: Task) {
        self.obs.lock().expect("obs poisoned").tasks.inc();
        let result = catch_unwind(AssertUnwindSafe(task.job));
        if let Err(payload) = result {
            let mut slot = task.scope.panic.lock().expect("panic slot poisoned");
            slot.get_or_insert(payload);
        }
        let mut remaining = task.scope.remaining.lock().expect("latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            task.scope.done.notify_all();
        }
    }

    fn worker_loop(self: Arc<Self>, index: usize) {
        WORKER.set((self.identity(), index + 1));
        loop {
            if let Some(task) = self.find_task(index) {
                self.execute(task);
                continue;
            }
            let guard = self.park_lock.lock().expect("park lock poisoned");
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if self.has_queued_work() {
                continue; // a submission raced our scan; retry
            }
            self.obs.lock().expect("obs poisoned").parks.inc();
            drop(self.park_cond.wait(guard).expect("park lock poisoned"));
        }
    }
}

/// Lifetime totals of a pool — see [`WorkerPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed.
    pub tasks: u64,
    /// Tasks a worker took from a sibling's deque.
    pub steals: u64,
    /// Times a worker parked for lack of work.
    pub parks: u64,
}

/// A persistent pool of worker threads; see the module docs. Most callers
/// want [`WorkerPool::global`].
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

/// The parallelism the host advertises (≥ 1); what `--threads 0` and the
/// global pool size resolve through.
#[must_use]
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl WorkerPool {
    /// A pool with `background` worker threads. Total usable parallelism
    /// ([`width`](WorkerPool::width)) is `background + 1`: the thread that
    /// opens a scope always participates, so `background == 0` is a valid
    /// (fully inline) pool.
    #[must_use]
    pub fn with_workers(background: usize) -> Self {
        let inner = Arc::new(PoolInner {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..background)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            park_lock: Mutex::new(()),
            park_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steal_from: AtomicUsize::new(0),
            obs: Mutex::new(PoolObs {
                tasks: Counter::standalone(),
                steals: Counter::standalone(),
                parks: Counter::standalone(),
            }),
        });
        let handles = (0..background)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dds-pool-{i}"))
                    .spawn(move || inner.worker_loop(i))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// The process-wide pool, created on first use with
    /// `available_parallelism() - 1` background workers (the scope owner
    /// is the final lane). Never torn down.
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::with_workers(auto_threads().saturating_sub(1)))
    }

    /// Maximum concurrency a scope on this pool can reach: the background
    /// workers plus the scope owner itself.
    #[must_use]
    pub fn width(&self) -> usize {
        self.handles.len() + 1
    }

    /// Lifetime counters (tasks, steals, parks).
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let obs = self.inner.obs.lock().expect("obs poisoned");
        PoolStats {
            tasks: obs.tasks.get(),
            steals: obs.steals.get(),
            parks: obs.parks.get(),
        }
    }

    /// Re-homes the pool's counters in `registry` as
    /// `dds_pool_tasks_total` / `dds_pool_steals_total` /
    /// `dds_pool_parks_total`, transferring the values accumulated so far
    /// (the same contract as `SolveContext::attach_obs`).
    pub fn attach_obs(&self, registry: &Registry) {
        let mut obs = self.inner.obs.lock().expect("obs poisoned");
        obs.tasks.rehome(registry, "dds_pool_tasks_total");
        obs.steals.rehome(registry, "dds_pool_steals_total");
        obs.parks.rehome(registry, "dds_pool_parks_total");
    }

    /// Runs `f` with a [`PoolScope`] through which it can spawn borrowing
    /// closures onto the pool, then joins **all** spawned tasks before
    /// returning (unconditionally — also when `f` or a task panics; the
    /// first panic is re-raised here once every sibling finished). While
    /// joining, the calling thread executes its own scope's queued tasks,
    /// so a scope completes even with zero free pool workers.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let scope = PoolScope {
            pool: self,
            state: Arc::new(ScopeState::new()),
            _env: PhantomData,
        };
        let result = {
            let _join = JoinGuard {
                pool: self,
                state: Arc::clone(&scope.state),
            };
            f(&scope)
            // `_join` drops here: runs remaining own tasks, waits for the
            // rest — also during unwind if `f` panicked.
        };
        let panic = scope
            .state
            .panic
            .lock()
            .expect("panic slot poisoned")
            .take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        result
    }

    /// Fork/join over `count` indices with at most `parallelism`-way
    /// concurrency: claim-loop tasks pull indices from a shared atomic
    /// cursor (so uneven work never idles a lane) and the calling thread
    /// always runs one of the loops itself.
    pub fn run_indexed(&self, parallelism: usize, count: usize, f: &(dyn Fn(usize) + Sync)) {
        let lanes = parallelism.min(self.width()).min(count);
        if lanes <= 1 {
            for i in 0..count {
                f(i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let claim = &cursor;
        let drain = move || loop {
            let i = claim.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return;
            }
            f(i);
        };
        self.scope(|s| {
            for _ in 1..lanes {
                s.spawn(drain);
            }
            drain();
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let _guard = self.inner.park_lock.lock().expect("park lock poisoned");
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.park_cond.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Queues `f` on the pool; the enclosing [`WorkerPool::scope`] joins
    /// it before returning.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // Safety: the scope joins all tasks before `'env` data can go out
        // of scope (JoinGuard in `WorkerPool::scope` runs even on panic),
        // so erasing the lifetime cannot create a dangling borrow.
        let job: Job = unsafe { std::mem::transmute(job) };
        *self.state.remaining.lock().expect("latch poisoned") += 1;
        self.pool.inner.submit(Task {
            job,
            scope: Arc::clone(&self.state),
        });
    }
}

/// Joins the scope on drop: runs the scope's still-queued tasks on this
/// thread, then waits for tasks other threads claimed.
struct JoinGuard<'pool> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
}

impl Drop for JoinGuard<'_> {
    fn drop(&mut self) {
        loop {
            // Drain everything of ours still queued anywhere.
            while let Some(task) = self.pool.inner.take_scope_task(&self.state) {
                self.pool.inner.execute(task);
            }
            // Nothing of ours is queued; the rest are running on real
            // workers and will retire themselves.
            let remaining = self.state.remaining.lock().expect("latch poisoned");
            if *remaining == 0 {
                return;
            }
            // Re-check the queues after waiting: a running task of ours
            // cannot spawn siblings (tasks get no scope handle), so a
            // wakeup with remaining > 0 only means claimed tasks are still
            // in flight.
            let (remaining, timeout) = self
                .state
                .done
                .wait_timeout(remaining, std::time::Duration::from_millis(1))
                .expect("latch poisoned");
            let _ = timeout;
            if *remaining == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_runs_borrowing_tasks_and_joins() {
        let pool = WorkerPool::with_workers(3);
        let mut data = vec![0u64; 64];
        {
            let slots: Vec<Mutex<&mut u64>> = data.iter_mut().map(Mutex::new).collect();
            let slots = &slots;
            pool.scope(|s| {
                for (i, slot) in slots.iter().enumerate() {
                    s.spawn(move || **slot.lock().unwrap() = i as u64 + 1);
                }
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        assert!(pool.stats().tasks >= 64);
    }

    #[test]
    fn zero_worker_pool_runs_everything_inline() {
        let pool = WorkerPool::with_workers(0);
        assert_eq!(pool.width(), 1);
        let counter = AtomicUsize::new(0);
        pool.run_indexed(8, 100, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn run_indexed_visits_every_index_exactly_once() {
        let pool = WorkerPool::with_workers(4);
        for parallelism in [1, 2, 4, 16] {
            let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
            pool.run_indexed(parallelism, hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "parallelism={parallelism}"
            );
        }
    }

    #[test]
    fn panics_propagate_after_the_join() {
        let pool = WorkerPool::with_workers(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..8 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "task panic must reach the scope owner");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            8,
            "siblings finish before the panic is re-raised"
        );
        // The pool survives the panic and keeps serving.
        let ran = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_scopes_from_worker_tasks_complete() {
        // An outer scope whose tasks each open their own inner scope on
        // the same pool — the shape of a sharded apply escalating to a
        // parallel exact solve. With more tasks than workers this
        // exercises the self-help path in the join guard.
        let pool = WorkerPool::with_workers(2);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..6 {
                outer.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 24);
    }

    #[test]
    fn global_pool_exists_and_reports_stats() {
        let pool = WorkerPool::global();
        assert_eq!(pool.width(), auto_threads());
        let before = pool.stats().tasks;
        pool.run_indexed(4, 10, &|_| {});
        assert!(pool.stats().tasks >= before);
    }

    #[test]
    fn attach_obs_transfers_lifetime_totals() {
        let pool = WorkerPool::with_workers(1);
        pool.run_indexed(2, 8, &|_| {});
        let before = pool.stats();
        let registry = Registry::new();
        pool.attach_obs(&registry);
        assert_eq!(
            registry.counter_value("dds_pool_tasks_total"),
            Some(before.tasks)
        );
        pool.run_indexed(2, 8, &|_| {});
        assert!(registry.counter_value("dds_pool_tasks_total").unwrap() > before.tasks);
    }
}
