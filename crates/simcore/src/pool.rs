//! The bounded worker pool behind every repetition sweep.
//!
//! Repetitions of a deterministic simulation are embarrassingly parallel
//! — each builds its own state from `(config, seed)` — so engine trials
//! and grid campaigns both fan them out through [`parallel_map`], which
//! never starts more than `available_parallelism()` workers however many
//! items it is handed. Results land in index-addressed slots, so the
//! ordered fold ([`crate::stats::fold_metrics`]) is bit-identical to the
//! sequential path regardless of thread scheduling. simlint's
//! `os-threads` rule keeps other per-item thread fan-outs out of the sim
//! crates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `0..n` on a scoped worker pool, returning results in
/// index order. Work is claimed through an atomic cursor so uneven job
/// costs balance across workers; output order is fixed by index, not by
/// completion order, keeping downstream folds deterministic.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return (0..n).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("parallel_map result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(257, |i| i * 3);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn parallel_map_runs_on_at_most_available_parallelism_threads() {
        use std::sync::Condvar;
        use std::time::Duration;

        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Each job holds its thread until one more job than there are
        // cores runs beside it, or for 5 ms when none can. An unbounded
        // pool thus has every thread it starts claim a job, and thread
        // ids are never reused.
        let running = Mutex::new(0usize);
        let joined = Condvar::new();
        let ids = parallel_map(64, |_| {
            let mut n = running.lock().expect("running-jobs count poisoned");
            *n += 1;
            joined.notify_all();
            let (mut n, _) = joined
                .wait_timeout_while(n, Duration::from_millis(5), |n| *n <= cores)
                .expect("running-jobs count poisoned");
            *n -= 1;
            format!("{:?}", std::thread::current().id())
        });
        let mut distinct: Vec<&String> = ids.iter().collect();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() <= cores,
            "{} threads for 64 jobs on {cores} cores",
            distinct.len()
        );
    }
}
