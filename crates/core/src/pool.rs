//! Fork-join lanes for the parallel solvers.
//!
//! The solvers run in parallel only across independent units: the
//! Stern–Brocot ratio intervals of the exact engine and the grid points of
//! [`GridPeel`](crate::GridPeel). Each parallel solve forks its lanes once
//! through [`WorkerPool::fork_join`]: lane 0 runs on the calling thread,
//! every further lane on a [`std::thread::scope`] thread, and all of them
//! are joined before the solve returns. No thread outlives a solve and
//! none idles between solves. A scoped spawn and join costs about 50 µs on
//! a 2-vCPU host, against benchmark passes of 15–100 ms that fork once or
//! twice.
//!
//! [`WorkerPool`] caps the lane count at the host width, read once per
//! process, so a hostile `--threads` value cannot size anything by itself,
//! and counts the lanes it spawns (`dds_pool_tasks_total`).

use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock};

use dds_obs::{Counter, Registry};

/// Lifetime totals of a pool — see [`WorkerPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lanes spawned on scoped threads (lane 0 runs on the caller and is
    /// not counted).
    pub tasks: u64,
    /// Always 0: scoped lanes never steal. Kept for report readers that
    /// export it.
    pub steals: u64,
    /// Always 0, like `steals`.
    pub parks: u64,
}

/// The lane cap and spawn counter behind every parallel solve; see the
/// module docs. Callers want [`WorkerPool::global`].
#[derive(Debug)]
pub struct WorkerPool {
    width: usize,
    tasks: Mutex<Counter>,
}

/// The parallelism the host advertises (≥ 1); what `--threads 0` and the
/// global lane cap resolve through.
#[must_use]
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl WorkerPool {
    fn new(width: usize) -> Self {
        WorkerPool {
            width,
            tasks: Mutex::new(Counter::standalone()),
        }
    }

    /// The process-wide pool, its width read from [`auto_threads`] on
    /// first use.
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(auto_threads()))
    }

    /// The lanes a solve asking for `threads` runs on: `threads` capped at
    /// the pool's width, and at least 1.
    #[must_use]
    pub fn lanes(&self, threads: usize) -> usize {
        threads.clamp(1, self.width)
    }

    /// Runs `f` once per item, each item on its own lane: the first on the
    /// calling thread, the rest on scoped threads. Joins every lane before
    /// returning and hands the results back in item order. A panic in any
    /// lane is re-raised here once every lane has finished. Callers size
    /// `items` with [`lanes`](WorkerPool::lanes).
    pub fn fork_join<T, R>(
        &self,
        items: impl IntoIterator<Item = T>,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let mut items = items.into_iter();
        let Some(own) = items.next() else {
            return Vec::new();
        };
        let f = &f;
        std::thread::scope(|s| {
            let spawned: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
            self.tasks
                .lock()
                .expect("pool counter poisoned")
                .add(spawned.len() as u64);
            let mut out = Vec::with_capacity(spawned.len() + 1);
            out.push(f(own));
            for lane in spawned {
                out.push(lane.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            out
        })
    }

    /// Lifetime counters; `steals` and `parks` are always 0.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.tasks.lock().expect("pool counter poisoned").get(),
            ..PoolStats::default()
        }
    }

    /// Re-homes the spawned-lane counter in `registry` as
    /// `dds_pool_tasks_total`, transferring the value accumulated so far
    /// (the same contract as `SolveContext::attach_obs`).
    pub fn attach_obs(&self, registry: &Registry) {
        self.tasks
            .lock()
            .expect("pool counter poisoned")
            .rehome(registry, "dds_pool_tasks_total");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_borrowing_tasks_and_joins() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0u64; 64];
        let results = pool.fork_join(data.chunks_mut(16).enumerate(), |(lane, chunk)| {
            for v in chunk.iter_mut() {
                *v = lane as u64 + 1;
            }
            lane
        });
        assert_eq!(results, vec![0, 1, 2, 3], "results come back in item order");
        assert!(data
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as u64 / 16 + 1));
        assert_eq!(pool.stats().tasks, 3, "lane 0 runs on the caller");
    }

    #[test]
    fn zero_worker_pool_runs_everything_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.lanes(8), 1);
        let caller = std::thread::current().id();
        let ran_on = pool.fork_join([()], |()| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
        assert!(pool.fork_join(std::iter::empty::<()>(), |()| ()).is_empty());
        assert_eq!(pool.stats(), PoolStats::default(), "nothing spawned");
    }

    #[test]
    fn lanes_cap_at_the_host_width() {
        assert_eq!(WorkerPool::global().lanes(usize::MAX), auto_threads());
        assert_eq!(WorkerPool::new(3).lanes(usize::MAX), 3);
        assert_eq!(WorkerPool::new(3).lanes(2), 2);
        assert_eq!(WorkerPool::new(3).lanes(0), 1);
    }

    #[test]
    fn panics_propagate_after_the_join() {
        let pool = WorkerPool::new(4);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.fork_join(0..4, |lane| {
                if lane == 1 {
                    panic!("boom");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(result.is_err(), "a lane's panic must reach the caller");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            3,
            "siblings finish before the panic is re-raised"
        );
        // The pool keeps serving after a panic.
        assert_eq!(pool.fork_join(0..2, |lane| lane * 2), vec![0, 2]);
    }

    #[test]
    fn nested_scopes_from_worker_tasks_complete() {
        // Lanes that fork lanes of their own: the shape of concurrent
        // parallel solves started from threads that are themselves lanes.
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        pool.fork_join(0..2, |_| {
            pool.fork_join(0..2, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
        assert_eq!(pool.stats().tasks, 3);
    }

    #[test]
    fn global_pool_exists_and_reports_stats() {
        let pool = WorkerPool::global();
        let before = pool.stats();
        let lanes = pool.lanes(4);
        pool.fork_join(0..lanes, |_| ());
        let after = pool.stats();
        // Other tests fork on the global pool concurrently.
        assert!(after.tasks >= before.tasks + lanes as u64 - 1);
        assert_eq!((after.steals, after.parks), (0, 0));
    }

    #[test]
    fn attach_obs_transfers_lifetime_totals() {
        let pool = WorkerPool::new(2);
        pool.fork_join(0..2, |_| ());
        let registry = Registry::new();
        pool.attach_obs(&registry);
        assert_eq!(registry.counter_value("dds_pool_tasks_total"), Some(1));
        pool.fork_join(0..2, |_| ());
        assert_eq!(registry.counter_value("dds_pool_tasks_total"), Some(2));
        assert_eq!(pool.stats().tasks, 2);
    }
}
