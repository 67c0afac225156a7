//! Dependency-free fork-join parallelism over [`std::thread::scope`].
//!
//! The protocol's hot paths — bulk field kernels over `d`-length vectors
//! and the per-group one-shot recoveries of a grouped topology — are
//! embarrassingly parallel. This module provides the two shapes they
//! need without pulling in a thread-pool crate:
//!
//! * [`par_chunks_mut`] — split one mutable slice into contiguous
//!   per-worker ranges (data parallelism over `d`);
//! * [`par_map`] / [`par_map_mut`] — map a function over independent
//!   tasks (task parallelism over groups).
//!
//! # Thread count
//!
//! The worker count comes from the `LSA_THREADS` environment variable
//! (read once per process), falling back to
//! [`std::thread::available_parallelism`]. `LSA_THREADS=1` forces every
//! helper to run inline on the caller's thread. Tests and benches can
//! scope an override with [`with_threads`] without touching the
//! environment. A fork over `n` workers spawns `n − 1` scoped threads
//! and runs the last block on the calling thread, joining every thread
//! before it returns.
//!
//! # Determinism
//!
//! Every helper is bit-deterministic across thread counts: work is
//! partitioned into contiguous ranges, each output element is computed
//! independently with a fixed reduction order, and results land in
//! caller-owned slots — no worker ever observes another's output. A
//! kernel called *from inside* a worker runs serially (nested forking is
//! suppressed), so a parallel group decode never oversubscribes the
//! machine.

use std::cell::Cell;
use std::sync::OnceLock;

/// Below this many elements, forking costs more than it saves and
/// [`par_chunks_mut`] runs inline.
pub const MIN_PAR_LEN: usize = 1 << 15;

fn env_threads() -> usize {
    static GLOBAL: OnceLock<usize> = OnceLock::new();
    *GLOBAL.get_or_init(|| {
        std::env::var("LSA_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on worker threads so nested kernels run serially.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The worker count parallel helpers will use on this thread: 1 inside
/// a worker (no nested forking), else the [`with_threads`] override,
/// else `LSA_THREADS`, else the machine's available parallelism.
pub fn num_threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    OVERRIDE.with(Cell::get).unwrap_or_else(env_threads)
}

/// Run `f` with the thread count pinned to `n` on the current thread
/// (restored on exit, even across panics). Lets tests and benches
/// compare serial against parallel execution inside one process.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

/// Thread state a forked worker inherits from the forking thread: the
/// worker flag (suppresses nested forking) plus the caller's scoped
/// [`crate::simd::with_backend`] pin, so a kernel forced onto one
/// backend stays on it across the pool.
fn mark_worker_from(simd_pin: Option<crate::simd::Backend>) {
    IN_POOL.with(|c| c.set(true));
    crate::simd::set_override(simd_pin);
}

/// Marks the calling thread as a worker while it runs its own share of
/// a fork, restoring the previous flag on drop — also when the share
/// panics, so a caught panic never leaves the thread stuck serial.
struct InPoolGuard(bool);

impl InPoolGuard {
    fn enter() -> Self {
        InPoolGuard(IN_POOL.with(|c| c.replace(true)))
    }
}

impl Drop for InPoolGuard {
    fn drop(&mut self) {
        IN_POOL.with(|c| c.set(self.0));
    }
}

/// Run `run` once per part: every part but the last on its own scoped
/// thread, the last on the calling thread.
///
/// Every spawned thread is joined explicitly before this returns.
/// [`std::thread::scope`] alone only waits for the threads' closures,
/// and a thread that has not yet exited still holds its malloc arena,
/// so the next fork's fresh threads would open new arenas and grow the
/// heap call after call. A worker's panic resumes on the caller once
/// every thread has been joined.
fn fork_join<P, I, F>(parts: I, run: F)
where
    P: Send,
    I: IntoIterator<Item = P>,
    F: Fn(P) + Sync,
{
    let simd_pin = crate::simd::current_override();
    let run = &run;
    let mut parts: Vec<P> = parts.into_iter().collect();
    let own = parts.pop();
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    mark_worker_from(simd_pin);
                    run(part);
                })
            })
            .collect();
        if let Some(part) = own {
            let _in_pool = InPoolGuard::enter();
            run(part);
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// The sizes of `workers` contiguous blocks covering `n` items, the
/// first `n % workers` one larger.
fn block_sizes(n: usize, workers: usize) -> impl Iterator<Item = usize> {
    let (base, extra) = (n / workers, n % workers);
    (0..workers).map(move |w| base + usize::from(w < extra))
}

/// Apply `f(start_offset, sub_slice)` over contiguous partitions of
/// `data`, forked across the configured worker count.
///
/// The partition only decides *who* computes which range; as long as `f`
/// computes each element independently (true of every kernel in
/// [`crate::ops`]), the output is bit-identical for any thread count.
/// Slices shorter than [`MIN_PAR_LEN`] run inline.
pub fn par_chunks_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let workers = num_threads().min(data.len());
    if workers <= 1 || data.len() < MIN_PAR_LEN {
        f(0, data);
        return;
    }
    let mut rest = data;
    let mut offset = 0;
    let parts = block_sizes(rest.len(), workers).map(move |take| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
        rest = tail;
        let start = offset;
        offset += take;
        (start, head)
    });
    fork_join(parts, |(start, chunk)| f(start, chunk));
}

/// Map `f` over independent read-only tasks, preserving order.
///
/// Tasks are dealt to workers in contiguous blocks; results are written
/// into per-task slots, so the output order (and content) never depends
/// on the thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = num_threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut items_rest = items;
    let mut out_rest = &mut out[..];
    let parts = block_sizes(items.len(), workers).map(move |take| {
        let (ih, it) = items_rest.split_at(take);
        let (oh, ot) = std::mem::take(&mut out_rest).split_at_mut(take);
        items_rest = it;
        out_rest = ot;
        (ih, oh)
    });
    fork_join(parts, |(ih, oh)| {
        for (item, slot) in ih.iter().zip(oh) {
            *slot = Some(f(item));
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Map `f` over independent *mutable* tasks, preserving order — the
/// shape of a grouped topology's per-group recoveries, where each task
/// owns one group's server state.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let workers = num_threads().min(items.len());
    if workers <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let n = items.len();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut items_rest = items;
    let mut out_rest = &mut out[..];
    let parts = block_sizes(n, workers).map(move |take| {
        let (ih, it) = std::mem::take(&mut items_rest).split_at_mut(take);
        let (oh, ot) = std::mem::take(&mut out_rest).split_at_mut(take);
        items_rest = it;
        out_rest = ot;
        (ih, oh)
    });
    fork_join(parts, |(ih, oh)| {
        for (item, slot) in ih.iter_mut().zip(oh) {
            *slot = Some(f(item));
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        with_threads(3, || assert_eq!(num_threads(), 3));
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        // above MIN_PAR_LEN so the forked path actually runs
        let mut data = vec![0u64; MIN_PAR_LEN + 17];
        with_threads(4, || {
            par_chunks_mut(&mut data, |offset, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x += (offset + i) as u64;
                }
            });
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let got = with_threads(4, || par_map(&items, |&x| x * 2));
        assert_eq!(got, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_maps() {
        let mut items: Vec<usize> = (0..37).collect();
        let got = with_threads(4, || {
            par_map_mut(&mut items, |x| {
                *x += 1;
                *x * 10
            })
        });
        assert_eq!(items, (1..38).collect::<Vec<_>>());
        assert_eq!(got, (1..38).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallelism_is_suppressed() {
        let inner_counts = AtomicUsize::new(0);
        let mut tasks = vec![(); 8];
        with_threads(4, || {
            par_map_mut(&mut tasks, |()| {
                inner_counts.fetch_max(num_threads(), Ordering::Relaxed);
            });
        });
        assert_eq!(inner_counts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_task_runs_serial_including_the_callers_block() {
        // 9 tasks over 4 workers: the last block (tasks 7 and 8) runs on
        // the calling thread, which must count as in-pool too
        let caller = std::thread::current().id();
        let mut tasks: Vec<usize> = (0..9).collect();
        let seen = with_threads(4, || {
            let seen = par_map_mut(&mut tasks, |_| (num_threads(), std::thread::current().id()));
            assert_eq!(num_threads(), 4, "outer count restored");
            seen
        });
        assert!(seen.iter().all(|&(n, _)| n == 1), "{seen:?}");
        assert!(seen[7..].iter().all(|&(_, id)| id == caller));
        assert!(seen[..7].iter().all(|&(_, id)| id != caller));
    }

    #[test]
    fn a_panicking_task_leaves_the_thread_count_intact() {
        for panicking in [0usize, 8] {
            // task 0 panics on a spawned worker, task 8 on the caller
            let mut tasks: Vec<usize> = (0..9).collect();
            with_threads(4, || {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    par_map_mut(&mut tasks, |&mut i| {
                        assert_ne!(i, panicking, "task {i} panics");
                    })
                }));
                assert!(caught.is_err(), "the task's panic reaches the caller");
                assert_eq!(num_threads(), 4, "outer count restored after panic");
            });
        }
    }

    #[test]
    fn empty_and_tiny_inputs_run_inline() {
        let mut empty: Vec<u64> = Vec::new();
        par_chunks_mut(&mut empty, |_, _| {});
        let got: Vec<u64> = par_map(&Vec::<u64>::new(), |&x| x);
        assert!(got.is_empty());
    }
}
