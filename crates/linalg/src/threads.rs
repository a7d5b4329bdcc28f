//! A minimal scoped "thread pool" built on [`std::thread::scope`].
//!
//! The suite runs in offline containers without rayon, so the parallel
//! kernels (blocked matmul, pairwise distances, batch k-d tree queries)
//! share these two std-only helpers instead. Threads are spawned per call
//! and joined before returning — no detached workers, no channels, no
//! unsafe — which keeps the helpers composable with borrowed data.
//!
//! The worker count is resolved by [`num_threads`]: an explicit
//! [`set_num_threads`] override wins, then the `NOBLE_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. The last two are
//! read once per process, on first use: the matmul dispatcher asks on every
//! dense layer, and on Linux `available_parallelism` re-reads the cgroup
//! CPU-quota files each time it is called.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Serializes tests that mutate the process-wide thread override so they
/// don't race each other under the parallel test harness.
#[cfg(test)]
pub(crate) static TEST_THREAD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `NOBLE_THREADS`, else detected parallelism — resolved on first use.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Whether the current thread is a parallel worker: one of this
    /// module's scoped workers, or a long-lived thread that owns a core
    /// (a serving shard worker). Nested parallel regions would
    /// oversubscribe the machine multiplicatively (N shard workers x M
    /// matmul workers), so inside a worker [`num_threads`] reports 1 and
    /// nested kernels run serial.
    static IN_PARALLEL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Restores the caller's worker mark on drop, so a nested mark or a
/// panic unwinding out of `f` leaves the outer state as it was.
struct WorkerMark {
    previous: bool,
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_PARALLEL_WORKER.with(|flag| flag.set(self.previous));
    }
}

/// Runs `f` with the current thread marked as a parallel worker, so
/// [`num_threads`] reports 1 and kernels under `f` run serial.
///
/// For threads that already own a core — a serving shard worker, a
/// per-shard trainer — whose kernels must not spawn threads of their
/// own. The previous mark is restored when `f` returns or unwinds.
pub fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    let _mark = WorkerMark {
        previous: IN_PARALLEL_WORKER.with(|flag| flag.replace(true)),
    };
    f()
}

/// Overrides the worker count used by the parallel kernels.
///
/// Takes effect immediately. Pass `0` to clear the override and fall back
/// to `NOBLE_THREADS` / detected parallelism. Benchmarks use this to sweep
/// thread counts.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Worker count the parallel kernels will use.
///
/// Resolution order: [`set_num_threads`] override, the `NOBLE_THREADS`
/// environment variable, then detected hardware parallelism (minimum 1).
/// The environment variable and hardware parallelism are read once per
/// process, on the first call that needs them. On a thread marked by
/// [`as_worker`] the answer is always 1, so nested parallel regions (a
/// matmul inside a parallel shard-training sweep or a serving shard
/// worker, say) never multiply thread counts.
pub fn num_threads() -> usize {
    if IN_PARALLEL_WORKER.with(|flag| flag.get()) {
        return 1;
    }
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("NOBLE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Splits `data` into chunks of `chunk_len` elements and runs
/// `f(chunk_index, chunk)` over them on up to `threads` scoped workers.
///
/// Chunks are dealt round-robin to workers, so `f` must be independent
/// across chunks (it is called concurrently). With `threads <= 1` — or a
/// single chunk — everything runs on the calling thread, which keeps the
/// serial path allocation-free and deterministic for tests.
///
/// # Panics
///
/// Panics if `chunk_len` is zero while `data` is non-empty.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "parallel_chunks_mut: chunk_len must be > 0");
    let n_chunks = data.len().div_ceil(chunk_len);
    if threads <= 1 || n_chunks <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let workers = threads.min(n_chunks);
    let mut assignments: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        assignments[i % workers].push((i, chunk));
    }
    let f = &f;
    std::thread::scope(|s| {
        for work in assignments {
            s.spawn(move || {
                as_worker(|| {
                    for (i, chunk) in work {
                        f(i, chunk);
                    }
                });
            });
        }
    });
}

/// Splits `0..n` into up to `threads` contiguous ranges, maps each through
/// `f` on a scoped worker, and returns the results in range order.
///
/// With `threads <= 1` (or a single item) `f` runs on the calling thread.
pub fn parallel_map_ranges<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    if workers == 1 {
        return vec![f(0..n)];
    }
    let per = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * per;
                let hi = ((w + 1) * per).min(n);
                s.spawn(move || as_worker(|| f(lo..hi)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_all_elements() {
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0u64; 37];
            parallel_chunks_mut(&mut data, 5, threads, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v = i as u64 + 1;
                }
            });
            assert!(data.iter().all(|&v| v > 0), "threads={threads}");
            // Chunk 0 covers the first 5 elements, etc.
            assert_eq!(data[0], 1);
            assert_eq!(data[36], 8);
        }
    }

    #[test]
    fn chunks_empty_and_serial() {
        let mut empty: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut empty, 4, 4, |_, _| panic!("no chunks expected"));
        let mut one = vec![0u8; 3];
        parallel_chunks_mut(&mut one, 10, 4, |i, chunk| {
            assert_eq!(i, 0);
            chunk.fill(7);
        });
        assert_eq!(one, vec![7, 7, 7]);
    }

    #[test]
    fn map_ranges_ordered_and_complete() {
        for threads in [1, 2, 5, 16] {
            let parts = parallel_map_ranges(11, threads, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..11).collect::<Vec<_>>(), "threads={threads}");
        }
        assert!(parallel_map_ranges(0, 4, |_| 1).is_empty());
    }

    #[test]
    fn nested_regions_report_one_thread() {
        let _guard = TEST_THREAD_LOCK.lock().unwrap();
        set_num_threads(4);
        // Inside a spawned worker, num_threads() collapses to 1 so nested
        // kernels never multiply the thread count; the calling thread is
        // unaffected, and serial (inline) execution does not set the flag.
        let seen = parallel_map_ranges(4, 4, |_| num_threads());
        assert!(seen.iter().all(|&n| n == 1), "workers saw {seen:?}");
        assert_eq!(num_threads(), 4, "caller unaffected");
        let inline = parallel_map_ranges(1, 1, |_| num_threads());
        assert_eq!(inline, vec![4], "inline execution is not a worker");
        set_num_threads(0);
    }

    #[test]
    fn override_wins_and_clears() {
        let _guard = TEST_THREAD_LOCK.lock().unwrap();
        set_num_threads(0);
        let cached = num_threads();
        assert!(cached >= 1);
        assert_eq!(DEFAULT_THREADS.get(), Some(&cached), "first use caches");
        // The override is never cached: each change applies on the next
        // call, and clearing it returns the cached default.
        set_num_threads(cached + 3);
        assert_eq!(num_threads(), cached + 3);
        set_num_threads(1);
        assert_eq!(num_threads(), 1);
        set_num_threads(0);
        assert_eq!(num_threads(), cached);
    }

    #[test]
    fn nested_worker_mark_restores_the_outer_mark() {
        let _guard = TEST_THREAD_LOCK.lock().unwrap();
        set_num_threads(4);
        as_worker(|| {
            as_worker(|| assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 1, "inner exit kept the outer mark");
        });
        assert_eq!(num_threads(), 4, "outer exit cleared the mark");
        let unwound = std::panic::catch_unwind(|| as_worker(|| panic!("model failure")));
        assert!(unwound.is_err());
        assert_eq!(num_threads(), 4, "a panic does not leave the mark set");
        set_num_threads(0);
    }
}
