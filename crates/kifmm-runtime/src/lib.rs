//! # kifmm-runtime — in-tree shared-memory parallel runtime
//!
//! A small spawn-join fork/join layer over [`std::thread::scope`] that
//! replaces rayon for the two shapes of data parallelism the FMM needs:
//!
//! * **chunked writes** — a flat output array split into disjoint chunks,
//!   each written by exactly one task ([`par_chunks_mut`],
//!   [`par_chunks2_mut`]);
//! * **indexed reads** — an ordered map over `0..n`
//!   ([`par_map`], [`par_index`], [`par_for_each`]).
//!
//! ## Determinism contract
//!
//! Every helper assigns output element `i` to exactly one task, and that
//! task computes it with the same instruction sequence the serial loop
//! would use. Worker threads race only over *which* index they claim next
//! (an atomic counter), never over the contents of an element, so results
//! are **bit-identical to the serial execution for any thread count** —
//! the property the pool-dispatch evaluation documents and tests.
//!
//! ## Pool model
//!
//! There is no persistent pool: each parallel region spawns workers under
//! `std::thread::scope` and joins them before returning. That keeps
//! borrowed (non-`'static`) closures safe without unsafe lifetime erasure
//! and makes a panicking task propagate out of the call like a serial
//! panic would. Region granularity in the FMM is a whole level or phase,
//! so spawn cost is amortized over milliseconds of work. Thread count
//! comes from `KIFMM_NUM_THREADS` (if set) or the machine's available
//! parallelism.

mod time;

pub use time::thread_cpu_time;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker count used by the `par_*` helpers: `KIFMM_NUM_THREADS` if set
/// (minimum 1), else [`std::thread::available_parallelism`].
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("KIFMM_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Core fork/join loop: claim indices `0..n` off a shared counter with
/// `threads` workers (the caller's thread is one of them), giving each
/// worker one `init()` state for its lifetime.
fn run_pool<S>(
    threads: usize,
    n: usize,
    init: &(impl Fn() -> S + Sync),
    f: &(impl Fn(&mut S, usize) + Sync),
) {
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        for i in 0..n {
            f(&mut state, i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let work = |next: &AtomicUsize| {
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            f(&mut state, i);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| work(&next));
        }
        work(&next);
    });
}

/// Thread-dispatch policy handed to compute engines (notably the FMM pass
/// engine in `kifmm-core`): a caller-visible choice between running every
/// loop inline on the calling thread and fanning out over the worker pool.
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

/// Run `f(i)` for every `i` in `0..n`, in parallel.
pub fn par_index(n: usize, f: impl Fn(usize) + Sync) {
    run_pool(num_threads(), n, &|| (), &|(), i| f(i));
}

/// Raw pointer that may cross thread boundaries. Safety rests on the
/// index-claiming discipline of [`run_pool`]: each index is handed to
/// exactly one task, and tasks only touch the disjoint region derived
/// from their index.
struct SyncPtr<T>(*mut T);
// SAFETY: the one field is a raw pointer into a slice the spawning call
// holds `&mut` for the whole pool run; threads sharing the wrapper only
// derive pairwise disjoint sub-slices from it (one per claimed index), and
// every user bounds `T: Send`, so each element is touched by one thread.
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper under edition-2021 disjoint capture, not the raw
    /// pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Split `data` into chunks of `size` (last one may be short) and run
/// `f(chunk_index, chunk)` on each in parallel. Equivalent to rayon's
/// `par_chunks_mut(size).enumerate().for_each(...)`.
pub fn par_chunks_mut<T: Send>(data: &mut [T], size: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    par_chunks_mut_init(data, size, || (), |(), i, c| f(i, c));
}

/// [`par_chunks_mut`] with an explicit worker count (1 runs inline on the
/// calling thread); used with [`Dispatch::threads`].
pub fn par_chunks_mut_with<T: Send>(
    threads: usize,
    data: &mut [T],
    size: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    par_chunks_mut_init_with(threads, data, size, || (), |(), i, c| f(i, c));
}

/// [`par_chunks_mut`] with a per-worker scratch state: `init()` runs once
/// per worker thread, and `f` receives that worker's `&mut S` (the rayon
/// `for_each_init` pattern, used for reusable FFT accumulators).
pub fn par_chunks_mut_init<T: Send, S>(
    data: &mut [T],
    size: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [T]) + Sync,
) {
    par_chunks_mut_init_with(num_threads(), data, size, init, f);
}

/// [`par_chunks_mut_init`] with an explicit worker count (1 runs inline on
/// the calling thread); used with [`Dispatch::threads`].
pub fn par_chunks_mut_init_with<T: Send, S>(
    threads: usize,
    data: &mut [T],
    size: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [T]) + Sync,
) {
    assert!(size > 0, "chunk size must be positive");
    let len = data.len();
    let base = SyncPtr(data.as_mut_ptr());
    run_pool(threads, len.div_ceil(size), &init, &|state, i| {
        let start = i * size;
        let end = (start + size).min(len);
        // SAFETY: chunk i covers [i*size, min((i+1)*size, len)) of the
        // exclusively borrowed `data`, so it is in bounds; chunks are
        // pairwise disjoint and `run_pool` hands each index to exactly one
        // task, so no two `&mut` chunks alias.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(state, i, chunk);
    });
}

/// Chunk two mutable slices in lockstep and run `f(i, a_chunk, b_chunk)`
/// on each pair in parallel (rayon's zipped `par_chunks_mut`). Both
/// slices must split into the same number of chunks.
pub fn par_chunks2_mut<A: Send, B: Send>(
    a: &mut [A],
    size_a: usize,
    b: &mut [B],
    size_b: usize,
    f: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    assert!(size_a > 0 && size_b > 0, "chunk sizes must be positive");
    let (la, lb) = (a.len(), b.len());
    let n = la.div_ceil(size_a);
    assert_eq!(n, lb.div_ceil(size_b), "slices must chunk into the same task count");
    let pa = SyncPtr(a.as_mut_ptr());
    let pb = SyncPtr(b.as_mut_ptr());
    run_pool(num_threads(), n, &|| (), &|(), i| {
        let (sa, sb) = (i * size_a, i * size_b);
        let (ea, eb) = ((sa + size_a).min(la), (sb + size_b).min(lb));
        // SAFETY: as in `par_chunks_mut_init_with` — [sa, ea) ⊆ [0, la) and
        // [sb, eb) ⊆ [0, lb) are in bounds of the exclusively borrowed `a`
        // and `b`, chunks of one slice are pairwise disjoint, and each
        // index is claimed by exactly one task.
        let ca = unsafe { std::slice::from_raw_parts_mut(pa.get().add(sa), ea - sa) };
        // SAFETY: see `ca`.
        let cb = unsafe { std::slice::from_raw_parts_mut(pb.get().add(sb), eb - sb) };
        f(i, ca, cb);
    });
}

/// Compute `f(i)` for `0..n` in parallel and return the results in index
/// order (rayon's indexed `par_iter().map().collect()`).
pub fn par_map<O: Send>(n: usize, f: impl Fn(usize) -> O + Sync) -> Vec<O> {
    let mut out: Vec<Option<O>> = std::iter::repeat_with(|| None).take(n).collect();
    par_chunks_mut(&mut out, 1, |i, slot| slot[0] = Some(f(i)));
    out.into_iter().map(|o| o.expect("every slot filled")).collect()
}

/// Consume `items`, running `f(i, item)` on each in parallel (rayon's
/// `into_par_iter().for_each`, for items that are not `Clone` — e.g.
/// disjoint `&mut` sub-slices).
pub fn par_for_each<I: Send>(items: Vec<I>, f: impl Fn(usize, I) + Sync) {
    par_for_each_with(num_threads(), items, f)
}

/// [`par_for_each`] with an explicit worker count (1 runs inline on the
/// calling thread); used with [`Dispatch::threads`].
pub fn par_for_each_with<I: Send>(threads: usize, items: Vec<I>, f: impl Fn(usize, I) + Sync) {
    let mut items: Vec<Option<I>> = items.into_iter().map(Some).collect();
    par_chunks_mut_init_with(threads, &mut items, 1, || (), |(), i, slot| {
        f(i, slot[0].take().expect("item taken once"))
    });
}

/// Below this length the parallel sort runs `sort_unstable` inline:
/// spawn-join overhead dominates any split win on small arrays.
const PAR_SORT_CUTOFF: usize = 1 << 13;

/// Parallel unstable sort: split into one run per worker, `sort_unstable`
/// each run in parallel, then merge runs pairwise. Like `sort_unstable`,
/// the relative order of elements that compare equal is unspecified; the
/// element *multiset* is exactly preserved for any thread count. Built for
/// the Morton-code sorts of the tree layer, where keys are `(code, index)`
/// pairs with a unique total order — there the output is the one sorted
/// sequence regardless of thread count.
pub fn par_sort_unstable<T: Ord + Copy + Send>(data: &mut [T]) {
    let threads = num_threads();
    if threads <= 1 || data.len() < PAR_SORT_CUTOFF {
        data.sort_unstable();
        return;
    }
    let n = data.len();
    let runs = threads.min(n);
    let size = n.div_ceil(runs);
    par_chunks_mut(data, size, |_, chunk| chunk.sort_unstable());
    // Merge passes: runs are [i*size, min((i+1)*size, n)); merge adjacent
    // pairs until one run remains. The merges are memory-bound single
    // passes, so they stay serial — the O(n log n) work above is what
    // parallelizes.
    let mut bounds: Vec<usize> = (0..runs).map(|i| i * size).collect();
    bounds.push(n);
    let mut scratch: Vec<T> = Vec::with_capacity(n);
    while bounds.len() > 2 {
        let mut next = Vec::with_capacity(bounds.len() / 2 + 1);
        let mut k = 0;
        while k + 2 < bounds.len() {
            merge_sorted(&data[bounds[k]..bounds[k + 1]], &data[bounds[k + 1]..bounds[k + 2]], &mut scratch);
            data[bounds[k]..bounds[k + 2]].copy_from_slice(&scratch);
            next.push(bounds[k]);
            k += 2;
        }
        // An unpaired trailing run carries over to the next pass.
        while k < bounds.len() - 1 {
            next.push(bounds[k]);
            k += 1;
        }
        next.push(n);
        bounds = next;
    }
}

/// Merge two sorted slices into `out` (cleared first), taking from `a` on
/// ties.
pub fn merge_sorted<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// A lock-free fixed-capacity object pool.
///
/// `checkout()` pops any pooled object (or `None` when the pool is
/// drained — the caller then constructs a fresh one); `checkin(obj)`
/// returns an object to the pool, dropping it when every slot is
/// occupied. Both operations are wait-free scans over an array of
/// `AtomicPtr` slots: a checkout `swap`s a slot to null, a checkin
/// `compare_exchange`s a null slot to the object, so no slot can hand
/// the same object to two callers and there is no ABA hazard (a slot
/// holds either null or a uniquely-owned pointer).
///
/// Built for sharing `EngineWorkspace`-style scratch between session
/// threads: many concurrent evaluations check scratch out, run, and
/// check it back in without serializing on a mutex.
pub struct Freelist<T> {
    slots: Box<[std::sync::atomic::AtomicPtr<T>]>,
}

impl<T> Freelist<T> {
    /// An empty pool retaining at most `capacity` objects (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Freelist {
            slots: (0..capacity)
                .map(|_| std::sync::atomic::AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    /// Pop any pooled object; `None` when the pool is empty.
    pub fn checkout(&self) -> Option<Box<T>> {
        for slot in self.slots.iter() {
            let p = slot.swap(std::ptr::null_mut(), atomic::Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: every non-null slot value came from
                // `Box::into_raw` in `checkin`; the swap made the slot
                // null, so no other checkout can observe `p` and this
                // thread is its only owner.
                return Some(unsafe { Box::from_raw(p) });
            }
        }
        None
    }

    /// Return an object to the pool; drops it if every slot is full.
    pub fn checkin(&self, obj: Box<T>) {
        let p = Box::into_raw(obj);
        for slot in self.slots.iter() {
            if slot
                .compare_exchange(
                    std::ptr::null_mut(),
                    p,
                    atomic::Ordering::AcqRel,
                    atomic::Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
        }
        // Pool full: reclaim and drop.
        // SAFETY: `p` came from `Box::into_raw` above and no slot accepted
        // it, so it was never published to another thread.
        drop(unsafe { Box::from_raw(p) });
    }

    /// Number of objects currently pooled (racy snapshot, for tests).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| !s.load(atomic::Ordering::Acquire).is_null()).count()
    }

    /// True when no object is pooled (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Freelist<T> {
    fn drop(&mut self) {
        for slot in self.slots.iter() {
            let p = slot.swap(std::ptr::null_mut(), atomic::Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: non-null slot values come from `Box::into_raw`
                // in `checkin`; `&mut self` plus the swap-to-null make
                // this the only owner.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

// SAFETY: the one field is a boxed slice of `AtomicPtr<T>`, each null or
// the unique owner of a `Box<T>`. Moving the pool moves those boxes to
// another thread, which `T: Send` permits.
unsafe impl<T: Send> Send for Freelist<T> {}
// SAFETY: through `&Freelist` a thread can only move a whole `Box<T>` in
// or out (atomic swap / compare-exchange, AcqRel, so the box's contents are
// published with the pointer); no `&T` is ever shared, so `T: Send`
// suffices.
unsafe impl<T: Send> Sync for Freelist<T> {}

use std::sync::atomic;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Serial reference for the chunked-sum workload used below.
    fn serial_fill(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.1).sin() + (i as f64).sqrt()).collect()
    }

    #[test]
    fn chunks_bit_identical_to_serial_any_thread_count() {
        let n = 1037;
        let expect = serial_fill(n);
        for threads in [1, 2, 3, 8, 64] {
            let mut out = vec![0.0f64; n];
            let len = out.len();
            // Exercise the explicit-thread path through run_pool.
            let base = SyncPtr(out.as_mut_ptr());
            run_pool(threads, len.div_ceil(16), &|| (), &|(), c| {
                let start = c * 16;
                let end = (start + 16).min(len);
                // SAFETY: [start, end) ⊆ [0, len) of `out`, disjoint per
                // chunk index, and `run_pool` claims each index once.
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                for (j, v) in chunk.iter_mut().enumerate() {
                    let i = start + j;
                    *v = (i as f64 * 0.1).sin() + (i as f64).sqrt();
                }
            });
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_covers_everything_once() {
        let mut data = vec![0u32; 503];
        par_chunks_mut(&mut data, 7, |_, c| {
            for v in c {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn par_chunks_mut_ragged_tail_and_empty() {
        let mut data = vec![0usize; 10];
        let mut sizes = Vec::new();
        let sizes_ref = std::sync::Mutex::new(&mut sizes);
        par_chunks_mut(&mut data, 4, |i, c| sizes_ref.lock().unwrap().push((i, c.len())));
        sizes.sort_unstable();
        assert_eq!(sizes, vec![(0, 4), (1, 4), (2, 2)]);
        let mut empty: Vec<f64> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| panic!("no chunks on empty input"));
    }

    #[test]
    fn par_chunks2_mut_pairs_line_up() {
        let mut a = vec![0usize; 12];
        let mut b = vec![0usize; 6];
        par_chunks2_mut(&mut a, 4, &mut b, 2, |i, ca, cb| {
            for v in ca.iter_mut() {
                *v = i + 1;
            }
            for v in cb.iter_mut() {
                *v = 10 * (i + 1);
            }
        });
        assert_eq!(a, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        assert_eq!(b, vec![10, 10, 20, 20, 30, 30]);
    }

    #[test]
    #[should_panic(expected = "same task count")]
    fn par_chunks2_mut_rejects_mismatch() {
        let (mut a, mut b) = (vec![0; 8], vec![0; 8]);
        par_chunks2_mut(&mut a, 4, &mut b, 3, |_, _: &mut [i32], _: &mut [i32]| {});
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(1000, |i| i * i);
        assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>());
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    fn par_for_each_consumes_disjoint_mut_slices() {
        let mut data = vec![0u8; 9];
        let mut parts: Vec<&mut [u8]> = Vec::new();
        let mut rest: &mut [u8] = &mut data;
        for _ in 0..3 {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(3);
            parts.push(head);
            rest = tail;
        }
        par_for_each(parts, |i, part| part.fill(i as u8 + 1));
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn init_state_is_per_worker_and_reused() {
        // Each worker's state counts its own tasks; the total must be n.
        let total = AtomicU64::new(0);
        struct Tally<'a>(u64, &'a AtomicU64);
        impl Drop for Tally<'_> {
            fn drop(&mut self) {
                self.1.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        par_chunks_mut_init(&mut [0u8; 257], 1, || Tally(0, &total), |t, _, _| t.0 += 1);
        assert_eq!(total.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn task_panic_propagates() {
        let hit = std::panic::catch_unwind(|| {
            par_index(100, |i| {
                if i == 37 {
                    panic!("task 37 failed");
                }
            });
        });
        assert!(hit.is_err(), "panic in a task must propagate to the caller");
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
    fn explicit_thread_variants_match_serial() {
        let n = 533;
        let expect = serial_fill(n);
        for threads in [1, 2, 5, 16] {
            let mut out = vec![0.0f64; n];
            par_chunks_mut_with(threads, &mut out, 13, |c, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    let i = c * 13 + j;
                    *v = (i as f64 * 0.1).sin() + (i as f64).sqrt();
                }
            });
            assert_eq!(out, expect, "threads = {threads}");
        }
        let mut data = vec![0u8; 9];
        let mut parts: Vec<&mut [u8]> = Vec::new();
        let mut rest: &mut [u8] = &mut data;
        for _ in 0..3 {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(3);
            parts.push(head);
            rest = tail;
        }
        par_for_each_with(2, parts, |i, part| part.fill(i as u8 + 1));
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn freelist_checkout_checkin_roundtrip() {
        let pool: Freelist<Vec<u64>> = Freelist::new(4);
        assert!(pool.checkout().is_none(), "fresh pool is empty");
        pool.checkin(Box::new(vec![1, 2, 3]));
        pool.checkin(Box::new(vec![4]));
        assert_eq!(pool.len(), 2);
        let a = pool.checkout().expect("pooled object");
        let b = pool.checkout().expect("pooled object");
        assert!(pool.checkout().is_none());
        let mut got = vec![a.len(), b.len()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    fn freelist_drops_overflow_and_remaining() {
        struct Count<'a>(&'a AtomicU64);
        impl Drop for Count<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = AtomicU64::new(0);
        {
            let pool: Freelist<Count> = Freelist::new(2);
            pool.checkin(Box::new(Count(&drops)));
            pool.checkin(Box::new(Count(&drops)));
            pool.checkin(Box::new(Count(&drops))); // overflow: dropped now
            assert_eq!(drops.load(Ordering::Relaxed), 1);
        } // pool drop frees the two retained objects
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn freelist_concurrent_unique_ownership() {
        // 8 threads hammer checkout/checkin; every checked-out object must
        // be exclusively owned (no slot may hand one object out twice).
        let pool: Freelist<AtomicU64> = Freelist::new(4);
        for _ in 0..4 {
            pool.checkin(Box::new(AtomicU64::new(0)));
        }
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..2000 {
                        if let Some(obj) = pool.checkout() {
                            let claimed = obj.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(claimed, 0, "object handed to two owners");
                            obj.fetch_sub(1, Ordering::SeqCst);
                            pool.checkin(obj);
                        }
                    }
                });
            }
        });
        assert!(pool.len() <= 4);
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
    fn merge_sorted_takes_left_on_ties() {
        let mut out = Vec::new();
        merge_sorted(&[(1, 'a'), (2, 'a')], &[(1, 'b'), (3, 'b')], &mut out);
        assert_eq!(out, vec![(1, 'a'), (1, 'b'), (2, 'a'), (3, 'b')]);
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
