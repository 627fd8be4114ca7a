//! Deterministic parallel sweep executor.
//!
//! Every figure sweep is a map over independent `(config, seed)` points:
//! each point builds its own `Sim` from scratch, so points share no state
//! and can run on any thread. `parallel_map` fans the points across a
//! `std::thread::scope` worker pool and merges results **by input index**,
//! so the output vector — and therefore every CSV and chart derived from
//! it — is byte-identical to the sequential runner, regardless of thread
//! count or completion order.
//!
//! The pool size comes from `sweep_threads`: the `S2G_BENCH_THREADS`
//! environment variable when set, otherwise the machine's available
//! parallelism. `S2G_BENCH_THREADS=1` forces the plain sequential path.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count for sweep fan-out: `S2G_BENCH_THREADS` if set to a positive
/// integer, else `std::thread::available_parallelism()`.
pub(crate) fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("S2G_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on [`sweep_threads`] workers, returning results in
/// input order. Falls back to a plain sequential map when one worker (or
/// one item) makes fan-out pointless. A panic in any worker is re-raised on
/// the calling thread once the scope joins.
pub(crate) fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(sweep_threads(), items, f)
}

/// `parallel_map` with an explicit worker count: maps `f` over `items` on
/// `threads` workers, returning results in input order.
pub fn parallel_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let workers = threads.min(items.len());
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => indexed.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 4, 16] {
            let got = parallel_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map_with(8, &none, |&x| x).is_empty());
        assert_eq!(parallel_map_with(8, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..32).collect();
        parallel_map_with(4, &items, |&x| {
            if x == 13 {
                panic!("worker boom");
            }
            x
        });
    }
}
