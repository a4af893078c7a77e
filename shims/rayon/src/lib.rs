//! Offline stand-in for `rayon` with a **real fork-join thread pool**.
//!
//! The build container has no registry access, so this crate provides the
//! rayon API surface the workspace compiles against — `par_iter`,
//! `par_chunks[_mut]`, `into_par_iter`, `map`/`zip`/`enumerate`, the
//! two-closure `fold(|| id, f).reduce(|| id, op)` shape, `join`, and
//! `ThreadPool`/`ThreadPoolBuilder` — executing everything on worker threads:
//!
//! - A lazily-initialized **global pool** (size = `RAYON_NUM_THREADS` when
//!   set, else the logical core count) serves `par_*` calls made outside any
//!   dedicated pool.
//! - Dedicated [`ThreadPool`]s route work submitted through
//!   [`ThreadPool::install`] to their own workers — `install` really executes
//!   its closure *on a pool thread*, and nested `par_*` calls inside are
//!   clamped to that pool, so thread-count-clamped strong-scaling studies
//!   measure what they claim to.
//!
//! This crate is the one place threads start in the workspace: each pool's
//! workers live in a `std::thread::scope` owned by a detached supervisor
//! thread.
//!
//! Determinism: chunk partitions are pure functions of input length and grain
//! (see [`Par::with_min_len`]); ordered consumers merge per-chunk results in
//! ascending chunk order, so outputs are deterministic run-to-run, and
//! `fold`/`reduce` partitions are thread-count-independent. Worker panics
//! propagate to the submitting caller, as with real rayon.

// The thread layer: the workspace bans raw `std::thread` and `mpsc`
// (clippy.toml), and this crate is where threads start.
#![allow(clippy::disallowed_methods, reason = "the shim is the workspace's thread layer")]

mod iter;
mod pool;

pub use iter::{
    fold_grain, overpartition, ChunksMutSource, ChunksSource, EnumerateSource, FoldPar,
    IntoParallelIterator, MapSource, Par, ParallelSlice, ParallelSliceMut, ParallelSource,
    RangeIndex, RangeSource, SliceMutSource, SliceSource, VecSource, ZipSource,
};
pub use pool::{current_num_threads, join, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, Par, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::RangeSource;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn fold_reduce_matches_rayon_shape() {
        let data = [1u32, 2, 3, 4, 5];
        let total: u32 = data.par_iter().fold(|| 0u32, |a, &b| a + b).reduce(|| 0u32, |a, b| a + b);
        assert_eq!(total, 15);
    }

    #[test]
    fn map_zip_collect() {
        let a = [1, 2, 3];
        let mut b = vec![10, 20, 30];
        let pairs: Vec<i32> = a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect();
        assert_eq!(pairs, vec![11, 22, 33]);
        b.par_iter_mut().for_each(|v| *v += 1);
        assert_eq!(b, vec![11, 21, 31]);
    }

    #[test]
    fn chunks_and_ranges() {
        let v: Vec<usize> = (0..10usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v[9], 18);
        let sums: Vec<usize> = v.par_chunks(4).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, vec![12, 44, 34]);
    }

    #[test]
    fn pool_remembers_thread_count() {
        let p = pool(3);
        assert_eq!(p.current_num_threads(), 3);
        assert_eq!(p.install(|| 7), 7);
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn install_runs_on_a_pool_worker_thread() {
        let p = pool(4);
        let caller = std::thread::current().id();
        let (worker, inside_threads) =
            p.install(|| (std::thread::current().id(), crate::current_num_threads()));
        assert_ne!(worker, caller, "install must execute on a pool worker, not the caller");
        assert_eq!(inside_threads, 4, "current_num_threads inside install reports the pool size");
        // Nested install on the same pool runs inline on the worker.
        let (outer, inner) =
            p.install(|| (std::thread::current().id(), p.install(|| std::thread::current().id())));
        assert_eq!(outer, inner);
    }

    #[test]
    fn parallel_work_is_spread_across_pool_workers() {
        let p = pool(4);
        let ids = Mutex::new(Vec::new());
        p.install(|| {
            (0..64usize).into_par_iter().with_min_len(1).for_each(|_| {
                let id = std::thread::current().id();
                let mut ids = ids.lock().unwrap();
                if !ids.contains(&id) {
                    ids.push(id);
                }
                drop(ids);
                // Give other workers a chance to claim tasks.
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        let distinct = ids.lock().unwrap().len();
        assert!(distinct > 1, "expected multiple workers to execute tasks, saw {distinct}");
    }

    #[test]
    fn panic_in_for_each_propagates_to_caller() {
        let p = pool(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.install(|| {
                (0..1000usize).into_par_iter().with_min_len(1).for_each(|i| {
                    if i == 123 {
                        panic!("boom at {i}");
                    }
                });
            });
        }));
        let payload = r.expect_err("panic must propagate out of install");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom at 123"), "unexpected payload: {msg}");
        // The pool must still be usable afterwards.
        assert_eq!(p.install(|| 21 * 2), 42);
    }

    #[test]
    fn panic_on_global_pool_propagates() {
        let r = std::panic::catch_unwind(|| {
            (0..10_000usize).into_par_iter().for_each(|i| {
                if i == 7777 {
                    panic!("global boom");
                }
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn join_runs_both_and_propagates_panics() {
        let (a, b) = crate::join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
        let r = std::panic::catch_unwind(|| crate::join(|| 1, || panic!("right side")));
        assert!(r.is_err());
    }

    #[test]
    fn fold_partition_is_identical_across_pool_sizes() {
        // Float sums are order-sensitive; the fold partition must not depend
        // on the pool size, so every pool produces bit-identical results.
        let data: Vec<f64> = (0..100_000).map(|i| ((i * 37) % 1001) as f64 * 0.1).collect();
        let run = |p: &crate::ThreadPool| {
            p.install(|| {
                data.par_iter().fold(|| 0.0f64, |a, &b| a + b).reduce(|| 0.0f64, |a, b| a + b)
            })
        };
        let r1 = run(&pool(1));
        let r2 = run(&pool(2));
        let r8 = run(&pool(8));
        assert_eq!(r1.to_bits(), r2.to_bits());
        assert_eq!(r1.to_bits(), r8.to_bits());
    }

    #[test]
    fn float_sum_is_identical_across_pool_sizes() {
        // `sum` merges per-chunk sums in ascending chunk order over the same
        // thread-count-independent partition as `fold`, so a float sum is
        // bit-identical on every pool.
        let data: Vec<f64> = (0..100_000).map(|i| ((i * 37) % 1001) as f64 * 0.1).collect();
        let run = |p: &crate::ThreadPool| p.install(|| data.par_iter().sum::<f64>());
        let r1 = run(&pool(1));
        assert_eq!(r1.to_bits(), run(&pool(2)).to_bits());
        assert_eq!(r1.to_bits(), run(&pool(8)).to_bits());
    }

    #[test]
    fn collect_preserves_order_under_oversubscription() {
        let p = pool(8);
        let out: Vec<usize> =
            p.install(|| (0..50_000usize).into_par_iter().map(|i| i * 3).collect());
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn with_min_len_controls_task_granularity() {
        let p = pool(4);
        // The number of reduce merges equals the number of chunks, which is
        // observable: grain 5000 over 10k elements => exactly 2 chunks.
        let count_chunks = |min_len: usize| {
            let reduce_calls = AtomicUsize::new(0);
            let total: usize = p.install(|| {
                let it = (0..10_000usize).into_par_iter();
                let it = if min_len > 0 { it.with_min_len(min_len) } else { it };
                it.fold(|| 0usize, |a, i| a + i).reduce(
                    || 0usize,
                    |a, b| {
                        // ORDERING: Relaxed: a counter read after the join.
                        reduce_calls.fetch_add(1, Ordering::Relaxed);
                        a + b
                    },
                )
            });
            assert_eq!(total, 10_000 * 9_999 / 2);
            // ORDERING: Relaxed: `install` has joined every task.
            reduce_calls.load(Ordering::Relaxed)
        };
        assert_eq!(count_chunks(5000), 2, "with_min_len(5000) must yield 2 chunks");
        // Unset => fold_grain() (1024) => ceil(10000/1024) = 10 chunks.
        assert_eq!(count_chunks(0), 10);
        assert_eq!(count_chunks(10_000), 1);
    }

    #[test]
    fn with_max_len_caps_task_size() {
        let p = pool(2);
        // The reduce sees one accumulator per task, in task order.
        let task_sizes = |it: Par<RangeSource<usize>>| {
            let sizes = Mutex::new(Vec::new());
            p.install(|| {
                it.fold(|| 0usize, |n, _| n + 1).reduce(
                    || 0,
                    |a, n| {
                        sizes.lock().unwrap().push(n);
                        a + n
                    },
                )
            });
            sizes.into_inner().unwrap()
        };
        assert_eq!(task_sizes((0..25).into_par_iter().with_max_len(1)), vec![1; 25]);
        assert_eq!(task_sizes((0..25).into_par_iter().with_max_len(10)), vec![10, 10, 5]);
        // A floor above the cap wins.
        let it = (0..25).into_par_iter().with_max_len(1).with_min_len(25);
        assert_eq!(task_sizes(it), vec![25]);
    }

    #[test]
    fn zip_truncates_owning_side_without_leaking_items() {
        // Vec side longer than range side: tail elements must be dropped.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(usize);
        impl Drop for D {
            fn drop(&mut self) {
                // ORDERING: Relaxed: a counter read after the join.
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let v: Vec<D> = (0..10).map(D).collect();
        let picked: Vec<usize> = v.into_par_iter().zip(0..4usize).map(|(d, _)| d.0).collect();
        assert_eq!(picked, vec![0, 1, 2, 3]);
        assert_eq!(
            // ORDERING: Relaxed: `collect` has joined every task.
            DROPS.load(Ordering::Relaxed),
            10,
            "all 10 items dropped (4 moved, 6 truncated)"
        );
    }

    #[test]
    fn vec_into_par_iter_moves_items() {
        let v = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        let lens: Vec<usize> = v.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn sum_matches_sequential_for_integers() {
        let s: u64 = (0..100_000u64).into_par_iter().sum();
        assert_eq!(s, 100_000 * 99_999 / 2);
        let empty: u64 = (0..0u64).into_par_iter().sum();
        assert_eq!(empty, 0);
    }
}
