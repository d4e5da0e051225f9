//! # kifmm-testkit — deterministic property testing without proptest
//!
//! A shrinking-free replacement for the slice of proptest this workspace
//! used: run a test body against `cases` pseudorandom inputs drawn from a
//! seeded generator, and report the failing case's seed on panic so the
//! exact input can be replayed.
//!
//! ```
//! use kifmm_testkit::{check, prop_assert};
//!
//! check("abs_is_nonnegative", 64, |g| {
//!     let x = g.f64(-100.0, 100.0);
//!     prop_assert!(x.abs() >= 0.0, "abs({x})");
//! });
//! ```
//!
//! Determinism: case `i` of a named property always sees the same input
//! stream (the base seed is fixed; override it with `KIFMM_PROP_SEED` to
//! explore a different region of the input space, or to replay the seed a
//! failure report printed). There is no shrinking — the generator favors
//! small sizes, and failing inputs are reproducible, which has proven
//! enough for these numeric properties.

#![forbid(unsafe_code)]

use kifmm_geom::rng::{splitmix64, Rng};

pub mod fixtures;
pub mod json;

pub use fixtures::{
    check_matches_serial, check_matches_serial_opts, check_matches_serial_tol, cloud,
    serial_reference, split_points,
};

/// Per-case input generator: thin convenience layer over [`Rng`].
pub struct Gen {
    rng: Rng,
}

impl Gen {
    /// Generator for an explicit seed (usually [`check`] makes these).
    pub fn from_seed(seed: u64) -> Self {
        Gen { rng: Rng::seed_from_u64(seed) }
    }

    /// Uniform 64 random bits.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.rng.below((hi - lo) as usize) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.range_f64(lo, hi)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.range_usize(lo, hi)
    }

    /// Uniform `u8` in `[lo, hi)`.
    pub fn u8(&mut self, lo: u8, hi: u8) -> u8 {
        self.rng.range_usize(lo as usize, hi as usize) as u8
    }

    /// Vector of `len` uniform `f64`s in `[lo, hi)`.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.rng.range_f64(lo, hi)).collect()
    }

    /// Shuffle a slice in place.
    pub fn shuffle<T>(&mut self, data: &mut [T]) {
        self.rng.shuffle(data);
    }
}

/// Fixed per-name base seed (FNV-1a over the name keeps distinct
/// properties on distinct input streams).
fn base_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `body` against `cases` deterministic pseudorandom inputs. On a
/// failing case the case index and per-case seed are printed before the
/// panic propagates; setting `KIFMM_PROP_SEED=<seed>` replays exactly
/// that input as the single case of every property.
pub fn check(name: &str, cases: usize, body: impl Fn(&mut Gen)) {
    let replay: Option<u64> =
        std::env::var("KIFMM_PROP_SEED").ok().and_then(|v| v.trim().parse().ok());
    let base = base_seed(name);
    let total = if replay.is_some() { 1 } else { cases };
    for case in 0..total {
        let seed = replay.unwrap_or_else(|| {
            let mut state = base.wrapping_add(case as u64);
            splitmix64(&mut state)
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut gen = Gen::from_seed(seed);
            body(&mut gen);
        }));
        if let Err(payload) = result {
            eprintln!(
                "property '{name}' failed at case {case}/{total}; \
                 replay with KIFMM_PROP_SEED={seed}"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// `prop_assert!(cond)` / `prop_assert!(cond, fmt, args…)` — assert
/// inside a property body (plain panic; [`check`] adds replay info).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

/// `prop_assert_eq!(a, b)` — equality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(, $($fmt:tt)+)?) => {
        assert_eq!($a, $b $(, $($fmt)+)?)
    };
}

/// `prop_assert_ne!(a, b)` — inequality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(, $($fmt:tt)+)?) => {
        assert_ne!($a, $b $(, $($fmt)+)?)
    };
}

/// `prop_assume!(cond)` — discard the current case when the precondition
/// fails (the body must return `()`; the case counts as passed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        // Same property name ⇒ same case inputs. (check takes Fn, so
        // stash results through RefCells.)
        let first = std::cell::RefCell::new(Vec::new());
        check("determinism", 5, |g| first.borrow_mut().push(g.u64()));
        let second = std::cell::RefCell::new(Vec::new());
        check("determinism", 5, |g| second.borrow_mut().push(g.u64()));
        assert_eq!(first.into_inner(), second.into_inner());
    }

    #[test]
    fn distinct_names_get_distinct_streams() {
        let a = std::cell::RefCell::new(Vec::new());
        check("stream-a", 4, |g| a.borrow_mut().push(g.u64()));
        let b = std::cell::RefCell::new(Vec::new());
        check("stream-b", 4, |g| b.borrow_mut().push(g.u64()));
        assert_ne!(a.into_inner(), b.into_inner());
    }

    #[test]
    fn failing_case_propagates_panic() {
        let res = std::panic::catch_unwind(|| {
            check("fails", 10, |g| {
                let v = g.usize(0, 100);
                prop_assert!(v < usize::MAX, "unreachable");
                panic!("boom");
            });
        });
        assert!(res.is_err());
    }

    #[test]
    fn assume_discards_without_failing() {
        check("assume", 20, |g| {
            let v = g.usize(0, 10);
            prop_assume!(v < 5);
            prop_assert!(v < 5);
        });
    }

    #[test]
    fn generators_respect_ranges() {
        check("ranges", 50, |g| {
            let x = g.f64(-2.0, 3.0);
            prop_assert!((-2.0..3.0).contains(&x));
            let n = g.usize(1, 12);
            prop_assert!((1..12).contains(&n));
            let b = g.u8(3, 9);
            prop_assert!((3..9).contains(&b));
            let v = g.vec_f64(0.0, 1.0, n);
            prop_assert_eq!(v.len(), n);
        });
    }
}
