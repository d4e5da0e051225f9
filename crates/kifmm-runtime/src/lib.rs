//! # kifmm-runtime — in-tree shared-memory parallel runtime
//!
//! The smallest spawn-join layer over [`std::thread::scope`] that gives the
//! FMM deterministic data parallelism without rayon: one work-claiming loop,
//! [`par_each`], the three conveniences built on it ([`par_index`],
//! [`par_map`], [`par_sort_unstable`]), and one scratch pool, [`Pool`].
//!
//! A caller hands [`par_each`] the disjoint pieces it writes as an
//! iterator: `data.chunks_mut(n)`, two chunkings in lockstep
//! ([`zip_eq`]), or a `Vec` of `&mut` sub-slices. The borrow checker, not
//! a raw pointer, proves the pieces disjoint, so the crate is safe code
//! except for the clock syscall in `time.rs`.
//!
//! ## Determinism contract
//!
//! Every item is handed, with its index, to exactly one task, and that
//! task processes it with the same instruction sequence the serial loop
//! would use. Workers race only over *which* item they claim next, never
//! over an item's contents, so results are **bit-identical to the serial
//! execution for any thread count**.
//!
//! ## Pool model
//!
//! There is no persistent thread pool: each parallel region spawns workers
//! under `std::thread::scope` and joins them before returning. That keeps
//! borrowed (non-`'static`) closures safe without lifetime erasure and
//! makes a panicking task propagate out of the call like a serial panic
//! would. Region granularity in the FMM is a whole level or phase, so
//! spawn cost is amortized over milliseconds of work. Thread count comes
//! from `KIFMM_NUM_THREADS` (if set) or the machine's available
//! parallelism.

#![deny(unsafe_code)]

mod time;

pub use time::thread_cpu_time;

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Worker count used by the `par_*` conveniences: `KIFMM_NUM_THREADS` if
/// set (minimum 1), else [`std::thread::available_parallelism`].
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("KIFMM_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Thread-dispatch policy handed to compute engines (notably the FMM pass
/// engine in `kifmm-core`): a caller-visible choice between running every
/// loop inline on the calling thread and fanning out over the workers.
///
/// Both policies produce bit-identical results (see the determinism
/// contract above); the distributed driver uses [`Dispatch::Serial`] so
/// per-rank work stays on the rank's own thread, while the shared-memory
/// driver uses [`Dispatch::Pool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Dispatch {
    /// Run all engine loops inline on the calling thread.
    #[default]
    Serial,
    /// Fan engine loops out over [`num_threads`] workers.
    Pool,
}

impl Dispatch {
    /// Worker count this policy resolves to (1 for `Serial`).
    pub fn threads(self) -> usize {
        match self {
            Dispatch::Serial => 1,
            Dispatch::Pool => num_threads(),
        }
    }
}

/// The one parallel loop: run `f(state, index, item)` on every item of
/// `items` with `threads` workers (the caller's thread is one of them, and
/// there are never more workers than items). Each worker calls `init()`
/// once for the `state` it reuses across its items — the rayon
/// `for_each_init` pattern, used for per-worker FFT scratch. Workers claim
/// `(index, item)` pairs off the shared iterator under a mutex, held only
/// for the claim. With `threads ≤ 1` (or at most one item) the loop runs
/// inline on the calling thread. A panicking task propagates to the
/// caller once every worker has joined.
pub fn par_each<I, S>(
    threads: usize,
    items: I,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, I::Item) + Sync,
) where
    I: ExactSizeIterator + Send,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        let mut state = init();
        for (i, item) in items.enumerate() {
            f(&mut state, i, item);
        }
        return;
    }
    let items = Mutex::new(items.enumerate());
    let work = || {
        let mut state = init();
        loop {
            // A `let` statement: the guard drops before the task runs. Only
            // a panic inside `next` poisons the lock, and a half-advanced
            // iterator could pair an item with the wrong index.
            let claimed = items.lock().expect("an item claim panicked").next();
            let Some((i, item)) = claimed else { break };
            f(&mut state, i, item);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
}

/// `a.zip(b)` for two iterators that must have the same length — two
/// outputs cut at the same item boundaries for one [`par_each`]. Panics
/// when the lengths differ, where a plain `zip` would silently drop the
/// longer side's tail.
pub fn zip_eq<A, B>(a: A, b: B) -> std::iter::Zip<A, B>
where
    A: ExactSizeIterator,
    B: ExactSizeIterator,
{
    assert_eq!(a.len(), b.len(), "zipped iterators must have the same length");
    a.zip(b)
}

/// Run `f(i)` for every `i` in `0..n` on [`num_threads`] workers.
pub fn par_index(n: usize, f: impl Fn(usize) + Sync) {
    par_each(num_threads(), 0..n, || (), |(), i, _| f(i));
}

/// `f(item)` for every item of `items` on [`num_threads`] workers, the
/// results in item order (rayon's indexed `par_iter().map().collect()`).
pub fn par_map<I, O>(items: I, f: impl Fn(I::Item) -> O + Sync) -> Vec<O>
where
    I: ExactSizeIterator + Send,
    O: Send,
{
    let mut out: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
    par_each(num_threads(), zip_eq(items, out.iter_mut()), || (), |(), _, (item, slot)| {
        *slot = Some(f(item));
    });
    out.into_iter().map(|o| o.expect("every slot filled")).collect()
}

/// Below this length the parallel sort runs `sort_unstable` inline:
/// spawn-join overhead dominates any split win on small arrays.
const PAR_SORT_CUTOFF: usize = 1 << 13;

/// Parallel unstable sort: `sort_unstable` one run per worker in parallel,
/// then let the standard stable sort — which detects sorted runs — merge
/// them in `O(n log runs)`. Like `sort_unstable`, the relative order of
/// elements that compare equal is unspecified; the element *multiset* is
/// exactly preserved for any thread count. Built for the Morton-code sorts
/// of the tree layer, where keys are `(code, index)` pairs with a unique
/// total order — there the output is the one sorted sequence regardless
/// of thread count.
pub fn par_sort_unstable<T: Ord + Send>(data: &mut [T]) {
    let threads = num_threads();
    if threads <= 1 || data.len() < PAR_SORT_CUTOFF {
        data.sort_unstable();
        return;
    }
    let run = data.len().div_ceil(threads);
    par_each(threads, data.chunks_mut(run), || (), |(), _, r| r.sort_unstable());
    data.sort();
}

/// A bounded pool of reusable objects — the drivers' per-evaluation
/// scratch. [`Pool::with`] checks an object out (or makes a fresh one when
/// the pool is empty), runs the caller on it, and checks it back in,
/// dropping it instead when `capacity` objects are already pooled. The
/// lock is held for the pop and the push only, never while the caller
/// runs: concurrent users each get their own object, and a caller that
/// panics neither poisons the pool nor returns a half-written object to
/// it (the object unwinds with the caller's stack).
pub struct Pool<T> {
    slots: Mutex<Vec<T>>,
    capacity: usize,
}

impl<T> Pool<T> {
    /// An empty pool retaining at most `capacity` idle objects.
    pub fn new(capacity: usize) -> Self {
        Pool { slots: Mutex::new(Vec::new()), capacity }
    }

    /// Run `f` on a pooled object, or on `make()` when none is idle, and
    /// pool the object afterwards.
    pub fn with<R>(&self, make: impl FnOnce() -> T, f: impl FnOnce(&mut T) -> R) -> R {
        let idle = self.slots().pop();
        let mut obj = idle.unwrap_or_else(make);
        let out = f(&mut obj);
        let mut slots = self.slots();
        if slots.len() < self.capacity {
            slots.push(obj);
        }
        out
    }

    /// The idle objects. The lock guards only a push or a pop, which
    /// cannot leave the vector half-updated, so a poisoned lock is
    /// recovered.
    fn slots(&self) -> MutexGuard<'_, Vec<T>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// The value the chunked-fill tests below write at index `i`.
    fn value(i: usize) -> f64 {
        (i as f64 * 0.1).sin() + (i as f64).sqrt()
    }

    /// Fill `n` values through `par_each` over chunks of `size` with
    /// `threads` workers.
    fn chunked_fill(threads: usize, n: usize, size: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; n];
        par_each(threads, out.chunks_mut(size), || (), |(), c, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = value(c * size + j);
            }
        });
        out
    }

    #[test]
    fn chunks_bit_identical_to_serial_any_thread_count() {
        let n = 1037;
        let expect: Vec<f64> = (0..n).map(value).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(chunked_fill(threads, n, 16), expect, "threads = {threads}");
        }
    }

    #[test]
    fn explicit_thread_variants_match_serial() {
        let serial = chunked_fill(1, 533, 13);
        for threads in [2, 3, 5, 16] {
            let got = chunked_fill(threads, 533, 13);
            let same = got.iter().zip(&serial).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads = {threads} differs bitwise from serial");
        }
    }

    /// `par_each` over `chunks_mut`: every element written exactly once.
    #[test]
    fn par_chunks_mut_covers_everything_once() {
        for threads in [1, 4] {
            let mut data = vec![0u32; 503];
            par_each(threads, data.chunks_mut(7), || (), |(), _, c| {
                for v in c {
                    *v += 1;
                }
            });
            assert!(data.iter().all(|&v| v == 1), "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_ragged_tail_and_empty() {
        let mut data = [0usize; 10];
        let sizes = Mutex::new(Vec::new());
        par_each(3, data.chunks_mut(4), || (), |(), i, c| sizes.lock().unwrap().push((i, c.len())));
        let mut sizes = sizes.into_inner().unwrap();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![(0, 4), (1, 4), (2, 2)]);
        let mut empty: Vec<f64> = Vec::new();
        par_each(4, empty.chunks_mut(4), || (), |(), _, _| panic!("no chunks on empty input"));
    }

    /// `par_each` over two chunkings zipped in lockstep.
    #[test]
    fn par_chunks2_mut_pairs_line_up() {
        let mut a = vec![0usize; 12];
        let mut b = vec![0usize; 6];
        par_each(3, zip_eq(a.chunks_mut(4), b.chunks_mut(2)), || (), |(), i, (ca, cb)| {
            ca.fill(i + 1);
            cb.fill(10 * (i + 1));
        });
        assert_eq!(a, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        assert_eq!(b, vec![10, 10, 20, 20, 30, 30]);
    }

    /// Two chunkings of different counts are refused, not truncated.
    #[test]
    #[should_panic(expected = "same length")]
    fn par_chunks2_mut_rejects_mismatch() {
        let (mut a, mut b) = (vec![0; 8], vec![0; 8]);
        par_each(2, zip_eq(a.chunks_mut(4), b.chunks_mut(3)), || (), |(), _, _| {});
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(0..1000, |i| i * i);
        assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>());
        assert!(par_map(0..0, |i| i).is_empty());
        let words = ["a", "bb", "ccc"];
        assert_eq!(par_map(words.iter(), |w| w.len()), vec![1, 2, 3]);
    }

    /// `par_each` over a `Vec` of disjoint `&mut` sub-slices.
    #[test]
    fn par_for_each_consumes_disjoint_mut_slices() {
        for threads in [1, 2, 3] {
            let mut data = vec![0u8; 9];
            let parts: Vec<&mut [u8]> = data.chunks_mut(3).collect();
            par_each(threads, parts.into_iter(), || (), |(), i, part| part.fill(i as u8 + 1));
            assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3], "threads = {threads}");
        }
    }

    #[test]
    fn init_state_is_per_worker_and_reused() {
        // Each worker's state counts its own tasks and reports on drop:
        // one `init` per worker, and the tallies cover every item once.
        struct Tally<'a>(u64, &'a AtomicU64);
        impl Drop for Tally<'_> {
            fn drop(&mut self) {
                self.1.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        for (threads, n) in [(1, 257), (3, 257), (8, 257), (8, 5)] {
            let (total, inits) = (AtomicU64::new(0), AtomicUsize::new(0));
            let init = || {
                inits.fetch_add(1, Ordering::Relaxed);
                Tally(0, &total)
            };
            par_each(threads, 0..n, init, |t, _, _| t.0 += 1);
            assert_eq!(total.into_inner(), n as u64, "threads = {threads}");
            assert_eq!(inits.into_inner(), threads.min(n), "one init per worker");
        }
    }

    #[test]
    fn task_panic_propagates() {
        let fail_at_37 = |i: usize| {
            if i == 37 {
                panic!("task 37 failed");
            }
        };
        assert!(std::panic::catch_unwind(|| par_index(100, fail_at_37)).is_err());
        for threads in [1, 4] {
            let hit = std::panic::catch_unwind(|| {
                par_each(threads, 0..100, || (), |(), i, _| fail_at_37(i));
            });
            assert!(hit.is_err(), "threads = {threads}: the panic must reach the caller");
        }
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn dispatch_thread_counts() {
        assert_eq!(Dispatch::Serial.threads(), 1);
        assert!(Dispatch::Pool.threads() >= 1);
        assert_eq!(Dispatch::default(), Dispatch::Serial);
    }

    #[test]
    fn pool_checkout_checkin_roundtrip() {
        let pool: Pool<Vec<u64>> = Pool::new(4);
        let made = AtomicUsize::new(0);
        let make = || {
            made.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        };
        pool.with(make, |v| v.push(1));
        // Checked back in: the next user gets the same object, not a new one.
        assert_eq!(pool.with(make, |v| v.clone()), vec![1]);
        assert_eq!(made.load(Ordering::Relaxed), 1);
        // A nested user while the object is out gets a fresh one.
        let inner = pool.with(make, |outer| {
            outer.push(2);
            pool.with(make, |inner| inner.len())
        });
        assert_eq!((inner, made.load(Ordering::Relaxed)), (0, 2));
        assert_eq!(pool.slots().len(), 2);
    }

    #[test]
    fn pool_drops_overflow_and_remaining() {
        struct Count<'a>(&'a AtomicU64);
        impl Drop for Count<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = AtomicU64::new(0);
        {
            let pool: Pool<Count> = Pool::new(2);
            let make = || Count(&drops);
            // Three objects out at once; only two fit back in.
            pool.with(make, |_| pool.with(make, |_| pool.with(make, |_| {})));
            assert_eq!(drops.load(Ordering::Relaxed), 1);
            assert_eq!(pool.slots().len(), 2);
        } // pool drop frees the two retained objects
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_concurrent_unique_ownership() {
        // 8 threads hammer the pool; every object a user holds must be
        // exclusively its own (no object handed out twice at once).
        let pool: Pool<AtomicU64> = Pool::new(4);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..2000 {
                        pool.with(
                            || AtomicU64::new(0),
                            |obj| {
                                let claimed = obj.fetch_add(1, Ordering::SeqCst);
                                assert_eq!(claimed, 0, "object handed to two owners");
                                obj.fetch_sub(1, Ordering::SeqCst);
                            },
                        );
                    }
                });
            }
        });
        assert!(pool.slots().len() <= 4);
    }

    #[test]
    fn pool_survives_a_panicking_user() {
        let pool: Pool<Vec<u8>> = Pool::new(2);
        pool.with(Vec::new, |v| v.push(7));
        let hit = std::panic::catch_unwind(|| {
            pool.with(Vec::new, |v| {
                v.push(8);
                panic!("user failed halfway");
            })
        });
        assert!(hit.is_err());
        // The half-written object was dropped, not pooled; the pool is
        // neither poisoned nor empty-handed.
        assert_eq!(pool.slots().len(), 0);
        assert_eq!(pool.with(Vec::new, |v| v.clone()), Vec::<u8>::new());
    }

    #[test]
    fn par_sort_matches_std_on_duplicates() {
        // xorshift-ish deterministic fill with heavy duplication.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut data: Vec<u64> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 997
            })
            .collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        par_sort_unstable(&mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn par_sort_unique_pairs_and_small_inputs() {
        let mut x = 1u64;
        let mut pairs: Vec<(u64, u32)> = (0..50_000u32)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x % 512, i)
            })
            .collect();
        let mut expect = pairs.clone();
        expect.sort_unstable();
        par_sort_unstable(&mut pairs);
        assert_eq!(pairs, expect, "(code, index) pairs have a unique sorted order");
        for n in [0usize, 1, 2, 3, 100] {
            let mut small: Vec<u64> = (0..n as u64).rev().collect();
            par_sort_unstable(&mut small);
            assert_eq!(small, (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_cpu_time_advances_and_is_monotonic() {
        let t0 = thread_cpu_time();
        // Burn a little CPU; volatile-ish accumulation so it isn't elided.
        let mut acc = 0.0f64;
        for i in 0..2_000_000u64 {
            acc += (i as f64).sqrt();
        }
        std::hint::black_box(acc);
        let t1 = thread_cpu_time();
        assert!(t1 >= t0, "thread CPU clock went backwards: {t0} -> {t1}");
        assert!(t1 - t0 < 60.0, "implausible CPU time delta: {}", t1 - t0);
    }
}
