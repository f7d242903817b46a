//! Offline drop-in stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the parallel-iterator surface it actually uses:
//! `par_iter` / `par_iter_mut` / `par_chunks_mut` with the `enumerate`,
//! `zip`, `map`, `for_each` and `collect` combinators.
//!
//! Work is executed fork-join style on a lazily-started persistent
//! thread pool (`available_parallelism() - 1` workers; the calling
//! thread always runs one chunk itself). Items are split into one
//! contiguous chunk per thread, which matches how the workspace uses
//! rayon: many same-sized units of work.
//!
//! **The outermost `par_*` call owns the pool.** Every `par_*` call made
//! inside a parallel region — on a pool worker or on the caller while it
//! runs its own chunk — runs inline on that thread. There is no work
//! stealing, so a nested fork could only queue behind the outer chunks
//! that already occupy the workers; and for the same reason uneven
//! nested work cannot rebalance, so the outer loop should split the
//! work evenly.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};

/// Everything a caller needs in scope for the `par_*` methods.
pub mod prelude {
    pub use crate::{
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter, ParMap, ParallelSliceMut,
    };
}

// ---------------------------------------------------------------------
// Thread pool.
// ---------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// True while this thread runs a task of a parallel region: always on
    /// pool workers, and on the calling thread while it runs its inline
    /// chunk. Nested parallel calls then run inline instead of
    /// re-entering the pool — without work stealing, an inner fork-join
    /// would wait behind the outer chunks on the workers, and could
    /// deadlock once every worker does the same.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Number of threads a top-level parallel call splits its items across:
/// the pool workers plus the calling thread.
pub fn current_num_threads() -> usize {
    pool().workers + 1
}

struct Pool {
    tx: Mutex<mpsc::Sender<Job>>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(0)
            .max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = std::sync::Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("shim-rayon-{i}"))
                .spawn(move || {
                    IN_PARALLEL_REGION.set(true);
                    loop {
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => return,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => return,
                        }
                    }
                })
                .expect("spawn worker thread");
        }
        Pool {
            tx: Mutex::new(tx),
            workers,
        }
    })
}

/// Countdown latch: `wait` blocks until `count_down` has been called
/// `n` times.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicUsize,
    /// First pooled panic payload, rethrown by the caller so the
    /// original panic message (e.g. a failed training assert) survives
    /// instead of collapsing into a generic "a task panicked".
    payload: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panicked: AtomicUsize::new(0),
            payload: Mutex::new(None),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("latch poisoned");
        }
    }
}

/// Runs the given tasks to completion, one inline on the calling thread
/// and the rest on the pool. Blocks until every task has finished, so
/// tasks may safely borrow from the caller's stack.
fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 || IN_PARALLEL_REGION.get() {
        for task in tasks {
            task();
        }
        return;
    }
    let latch = std::sync::Arc::new(Latch::new(n - 1));
    let mut iter = tasks.into_iter();
    let first = iter.next().expect("at least two tasks");
    for task in iter {
        // SAFETY: `run_tasks` does not return until `latch.wait()` has
        // observed every submitted task's completion (count_down runs
        // even when the task panics), so the borrowed environment
        // strictly outlives the 'static-erased closure.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        let latch = latch.clone();
        let wrapped: Job = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                latch.panicked.fetch_add(1, Ordering::SeqCst);
                let mut slot = latch.payload.lock().expect("latch poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            latch.count_down();
        });
        pool()
            .tx
            .lock()
            .expect("pool poisoned")
            .send(wrapped)
            .expect("pool workers alive");
    }
    // The caller's own chunk is inside the region too. It cannot have
    // been inside one before (that returned above), and its panic is
    // caught, so resetting to false always restores the previous value.
    IN_PARALLEL_REGION.set(true);
    let inline_result = catch_unwind(AssertUnwindSafe(first));
    IN_PARALLEL_REGION.set(false);
    latch.wait();
    if let Err(payload) = inline_result {
        resume_unwind(payload);
    }
    if latch.panicked.load(Ordering::SeqCst) > 0 {
        let pooled = latch
            .payload
            .lock()
            .expect("latch poisoned")
            .take()
            .unwrap_or_else(|| Box::new("a parallel task panicked".to_string()));
        resume_unwind(pooled);
    }
}

/// Splits `items` into at most `parts` contiguous runs of near-equal
/// length.
fn split_vec<I>(mut items: Vec<I>, parts: usize) -> Vec<Vec<I>> {
    let n = items.len();
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    // Drain from the back so each drain is O(chunk).
    for p in (0..parts).rev() {
        let len = base + usize::from(p < extra);
        let tail: Vec<I> = items.split_off(items.len() - len);
        out.push(tail);
    }
    out.reverse();
    out
}

// ---------------------------------------------------------------------
// Parallel iterators.
// ---------------------------------------------------------------------

/// An eager parallel iterator over already-materialised items.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Pairs every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Zips two parallel iterators, truncating to the shorter.
    pub fn zip<J: Send>(self, other: ParIter<J>) -> ParIter<(I, J)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Applies `f` to every item, one contiguous chunk per pool thread.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        let threads = current_num_threads();
        if self.items.len() <= 1 || threads == 1 {
            for item in self.items {
                f(item);
            }
            return;
        }
        let chunks = split_vec(self.items, threads);
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
            .into_iter()
            .map(|chunk| {
                Box::new(move || {
                    for item in chunk {
                        f(item);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_tasks(tasks);
    }

    /// Lazily maps items; execution happens at `collect`.
    pub fn map<O, F>(self, f: F) -> ParMap<I, F>
    where
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIter::map`]; runs on `collect`.
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I: Send, F> ParMap<I, F> {
    /// Runs the map in parallel, preserving input order.
    pub fn collect<O>(self) -> Vec<O>
    where
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let threads = current_num_threads();
        if self.items.len() <= 1 || threads == 1 {
            return self.items.into_iter().map(self.f).collect();
        }
        let chunks = split_vec(self.items, threads);
        let f = &self.f;
        let results: Mutex<Vec<(usize, Vec<O>)>> = Mutex::new(Vec::new());
        let results_ref = &results;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
            .into_iter()
            .enumerate()
            .map(|(ci, chunk)| {
                Box::new(move || {
                    let mapped: Vec<O> = chunk.into_iter().map(f).collect();
                    results_ref
                        .lock()
                        .expect("collect mutex poisoned")
                        .push((ci, mapped));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_tasks(tasks);
        let mut parts = results.into_inner().expect("collect mutex poisoned");
        parts.sort_by_key(|(ci, _)| *ci);
        parts.into_iter().flat_map(|(_, v)| v).collect()
    }
}

/// `par_iter` on shared slices and vectors.
pub trait IntoParallelRefIterator<'a> {
    /// The per-item reference type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_iter_mut` on mutable slices and vectors.
pub trait IntoParallelRefMutIterator<'a> {
    /// The per-item mutable reference type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_visits_every_item_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        items.par_iter().for_each(|&i| {
            counter.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn par_iter_mut_writes_through() {
        let mut v = vec![0usize; 257];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 2);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn zip_pairs_in_order() {
        let mut a = vec![0u32; 100];
        let mut b: Vec<u32> = (0..100).collect();
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .for_each(|(x, y)| *x = *y + 1);
        assert!(a.iter().enumerate().all(|(i, &x)| x as usize == i + 1));
    }

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<usize> = (0..1003).collect();
        let out: Vec<usize> = items.par_iter().map(|&i| i * i).collect();
        assert_eq!(out.len(), 1003);
        assert!(out.iter().enumerate().all(|(i, &x)| x == i * i));
    }

    #[test]
    fn chunks_cover_the_slice() {
        let mut v = vec![1f32; 1000];
        v.par_chunks_mut(16)
            .enumerate()
            .for_each(|(blk, chunk)| {
                for x in chunk {
                    *x = blk as f32;
                }
            });
        assert_eq!(v[0], 0.0);
        assert_eq!(v[999], (999 / 16) as f32);
    }

    #[test]
    #[should_panic]
    fn panics_propagate_to_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        items.par_iter().for_each(|&i| {
            assert!(i < 63, "boom");
        });
    }

    #[test]
    fn nested_calls_run_inline_on_the_outer_items_thread() {
        // Every inner chunk must run on the thread that runs its outer
        // item — on the workers and on the caller's own chunk alike.
        let items: Vec<usize> = (0..8).collect();
        let mismatches = AtomicUsize::new(0);
        items.par_iter().for_each(|_| {
            let outer = std::thread::current().id();
            let mut inner = vec![0u8; 64];
            inner.par_chunks_mut(4).for_each(|chunk| {
                chunk.fill(1);
                if std::thread::current().id() != outer {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(inner.iter().all(|&x| x == 1));
        });
        assert_eq!(mismatches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_panic_in_the_callers_chunk_leaves_the_region() {
        let items: Vec<usize> = (0..64).collect();
        // Item 0 is in the first chunk, which the caller runs inline.
        let result = std::panic::catch_unwind(|| {
            items.par_iter().for_each(|&i| assert!(i != 0, "caller chunk"));
        });
        assert!(result.is_err(), "the inline panic must propagate");
        // A fresh top-level call must fork again: its last chunk goes to
        // the pool.
        let pooled = AtomicUsize::new(0);
        items.par_iter().for_each(|_| {
            let name = std::thread::current().name().map(str::to_owned);
            if name.is_some_and(|n| n.starts_with("shim-rayon-")) {
                pooled.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(pooled.load(Ordering::Relaxed) > 0, "no work reached the pool");
    }

    #[test]
    fn pooled_panic_keeps_its_payload() {
        // The panicking item sits in the last chunk, which is always
        // dispatched to the pool (the caller runs the first chunk
        // inline), so this exercises the cross-thread payload hand-off.
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            items.par_iter().for_each(|&i| {
                if i == 63 {
                    panic!("device 63 exploded");
                }
            });
        });
        let payload = result.expect_err("the pooled panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload is a panic message");
        assert!(
            msg.contains("device 63 exploded"),
            "payload lost its message: {msg:?}"
        );
    }
}
