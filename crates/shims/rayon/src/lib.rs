//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crate registry, so this shim provides the
//! subset of rayon's API the workspace uses: `into_par_iter()` on ranges
//! and vectors, with `map` / `flat_map_iter` / `for_each` / `fold` /
//! `reduce` / `collect` / `min` / `sum` / `count` adapters, plus
//! [`current_num_threads`] and a [`ThreadPoolBuilder`] whose pools only
//! scope that number.
//!
//! Semantics match rayon where the workspace relies on them:
//!
//! * adapters split their input into `4 ×` [`current_num_threads`]
//!   contiguous chunks, and that many workers — the calling thread plus
//!   scoped threads beside it — claim the chunks in turn from a shared
//!   index, so work genuinely runs in parallel on at most
//!   `current_num_threads()` threads at once;
//! * order-sensitive terminals (`collect`) preserve input order: each
//!   chunk's output lands in its own slot;
//! * `fold` produces one accumulator per chunk (rayon: per split), which
//!   `reduce` then combines in chunk order;
//! * a panic in any worker reaches the caller once every worker stopped.
//!
//! Unlike rayon there is no work stealing within a chunk: a skewed chunk
//! can straggle. Four chunks per worker soften that.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// The thread count of the [`ThreadPool::install`] this thread runs
    /// in, if any.
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads used by the shim (rayon API compatibility).
///
/// Inside [`ThreadPool::install`], the pool's size; otherwise
/// `RAYON_NUM_THREADS` when set, else the machine's available
/// parallelism.
pub fn current_num_threads() -> usize {
    if let Some(n) = INSTALLED.get() {
        return n;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Builds a [`ThreadPool`] (rayon's `ThreadPoolBuilder`, thread count
/// only).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool of the default size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool size; `0` (the default) leaves the size in force unchanged:
    /// the enclosing pool's, else `RAYON_NUM_THREADS` or every core.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// The pool. A `Result` as in rayon, so callers handle it the same
    /// way; building a shim pool cannot fail.
    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        Ok(ThreadPool {
            num_threads: (self.num_threads > 0).then_some(self.num_threads),
        })
    }
}

/// A thread count that [`ThreadPool::install`] puts in force for the
/// length of one call. Unlike rayon's, the pool owns no threads: the
/// adapters spawn scoped workers as always, sized by it.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Run `op` on this thread with [`current_num_threads`] reading the
    /// pool's size, there and in every worker the adapters spawn inside
    /// `op`. The previous value comes back when `op` returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.set(self.0);
            }
        }
        let _restore = Restore(INSTALLED.get());
        if self.num_threads.is_some() {
            INSTALLED.set(self.num_threads);
        }
        op()
    }
}

/// Run `f` over owned chunks of `items` on `current_num_threads()`
/// workers, the caller among them, concatenating the per-chunk outputs
/// in input order.
fn run_chunked<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(Vec<T>) -> Vec<R> + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n).max(1);
    if threads <= 1 || n <= 1 {
        return f(items);
    }
    let chunk = n.div_ceil(threads * 4).max(1);
    let mut inputs: Vec<Mutex<Vec<T>>> = Vec::with_capacity(n.div_ceil(chunk));
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        inputs.push(Mutex::new(c));
    }
    let outputs: Vec<Mutex<Vec<R>>> = inputs.iter().map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    // Relaxed: the index only hands out chunks, whose data moves under
    // the slot locks. No lock is held while `f` runs, so a panicking
    // chunk poisons none.
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(input) = inputs.get(i) else { return };
        let c = std::mem::take(&mut *input.lock().expect("no lock is held across `f`"));
        let out = f(c);
        *outputs[i].lock().expect("no lock is held across `f`") = out;
    };
    // `scope` joins every worker, then panics if one of them did.
    let installed = INSTALLED.get();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| {
                INSTALLED.set(installed);
                work()
            });
        }
        work();
    });
    outputs
        .into_iter()
        .flat_map(|o| o.into_inner().expect("no lock is held across `f`"))
        .collect()
}

/// An eager "parallel iterator" over an owned item list.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Conversion into a [`ParIter`] (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;

    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! par_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
par_range!(u16, u32, u64, usize, i32, i64);

macro_rules! par_range_inclusive {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::RangeInclusive<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
par_range_inclusive!(u16, u32, u64, usize, i32, i64);

impl<T: Send> ParIter<T> {
    /// Parallel map preserving order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: run_chunked(self.items, |c| c.into_iter().map(&f).collect()),
        }
    }

    /// Parallel flat-map where each item yields a serial iterator
    /// (rayon's `flat_map_iter`), preserving order.
    pub fn flat_map_iter<U, F>(self, f: F) -> ParIter<U::Item>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(T) -> U + Sync,
    {
        ParIter {
            items: run_chunked(self.items, |c| c.into_iter().flat_map(&f).collect()),
        }
    }

    /// Parallel filter preserving order.
    pub fn filter<F>(self, f: F) -> ParIter<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        ParIter {
            items: run_chunked(self.items, |c| c.into_iter().filter(&f).collect()),
        }
    }

    /// Parallel side-effecting visit (no ordering guarantee, like rayon).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_chunked::<_, (), _>(self.items, |c| {
            c.into_iter().for_each(&f);
            Vec::new()
        });
    }

    /// Rayon-style fold: one accumulator per parallel chunk; combine the
    /// chunk results with [`ParIter::reduce`].
    pub fn fold<A, ID, F>(self, identity: ID, fold: F) -> ParIter<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, T) -> A + Sync,
    {
        ParIter {
            items: run_chunked(self.items, |c| vec![c.into_iter().fold(identity(), &fold)]),
        }
    }

    /// Combine all items into one value (sequential tree-less combine —
    /// the item count here is small: one per chunk).
    pub fn reduce<ID, F>(self, identity: ID, f: F) -> T
    where
        ID: Fn() -> T,
        F: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), f)
    }

    /// Collect preserving input order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Minimum item.
    pub fn min(self) -> Option<T>
    where
        T: Ord,
    {
        self.items.into_iter().min()
    }

    /// Maximum item.
    pub fn max(self) -> Option<T>
    where
        T: Ord,
    {
        self.items.into_iter().max()
    }

    /// Sum of items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0u64..10_000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0u64..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fold_reduce_matches_serial() {
        let total: u64 = (0u64..100_000)
            .into_par_iter()
            .fold(|| 0u64, |acc, x| acc + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 100_000 * 99_999 / 2);
    }

    #[test]
    fn for_each_visits_every_item_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        (1u64..=1000).into_par_iter().for_each(|x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 500_500);
    }

    #[test]
    fn flat_map_iter_and_min() {
        let v: Vec<u32> = (0u32..100)
            .into_par_iter()
            .flat_map_iter(|x| (0..3).map(move |k| x * 3 + k))
            .collect();
        assert_eq!(v, (0u32..300).collect::<Vec<_>>());
        assert_eq!((5u32..50).into_par_iter().map(|x| x + 1).min(), Some(6));
    }

    #[test]
    fn order_holds_when_the_first_chunk_finishes_last() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let last_done = AtomicBool::new(false);
        let v: Vec<u64> = (0u64..64)
            .into_par_iter()
            .map(|x| {
                // Hold the first chunk until the last one is done. One
                // worker runs the chunks in order, hence the time limit.
                let t0 = Instant::now();
                while x == 0
                    && !last_done.load(Ordering::SeqCst)
                    && t0.elapsed() < Duration::from_secs(1)
                {
                    std::thread::yield_now();
                }
                last_done.fetch_or(x == 63, Ordering::SeqCst);
                x * 3
            })
            .collect();
        assert_eq!(v, (0u64..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn at_most_current_num_threads_closures_run_at_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (running, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
        (0u32..64).into_par_iter().for_each(|_| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            high.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            running.fetch_sub(1, Ordering::SeqCst);
        });
        let high = high.into_inner();
        assert!(
            (1..=super::current_num_threads()).contains(&high),
            "{high} closures ran at once"
        );
    }

    #[test]
    fn install_scopes_the_thread_count_to_the_call_and_its_workers() {
        use super::{current_num_threads, ThreadPoolBuilder};
        let outside = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen: Vec<usize> = pool.install(|| {
            assert_eq!(current_num_threads(), 3);
            (0u32..64)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert!(seen.iter().all(|&n| n == 3), "{seen:?}");
        // nested pools restore the outer size, also when `op` unwinds
        let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            let caught = std::panic::catch_unwind(|| one.install(|| panic!("inner")));
            assert!(caught.is_err());
            assert_eq!(current_num_threads(), 3);
        });
        // a default-sized pool changes nothing
        let default = ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(default.install(current_num_threads), outside);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn a_panicking_worker_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            (0u32..64).into_par_iter().for_each(|x| {
                assert_ne!(x, 57, "worker panic");
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
        assert_eq!((0u32..0).into_par_iter().count(), 0);
    }
}
