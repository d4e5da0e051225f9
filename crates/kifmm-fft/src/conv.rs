//! Hadamard (frequency-space) product helpers.
//!
//! An FFT-accelerated M2L translation is, per target box, an accumulation
//! of `K̂_offset · φ̂_source` products over the V list. This loop states
//! that accumulation on interleaved complex slabs: the engine's
//! chunk-major Hadamard stage (`kifmm_core::m2l`) is checked against
//! [`pointwise_mul_add`] bit for bit, and the repo benchmark times it.

use crate::c64::C64;

/// `out[i] += a[i] * b[i]` — the M2L Hadamard accumulation
/// (6 real multiplies + 4 adds per element; see the flop model in
/// `kifmm-core`).
#[inline]
pub fn pointwise_mul_add(out: &mut [C64], a: &[C64], b: &[C64]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = o.mul_add(*x, *y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_and_mul_add() {
        let a = [C64::new(1.0, 1.0), C64::new(2.0, 0.0)];
        let b = [C64::new(0.0, 1.0), C64::new(-1.0, 3.0)];
        let mut out = [C64::new(10.0, 0.0); 2];
        pointwise_mul_add(&mut out, &a, &b);
        assert_eq!(out[0], C64::new(9.0, 1.0));
        assert_eq!(out[1], C64::new(8.0, 6.0));
        pointwise_mul_add(&mut out, &a, &b);
        assert_eq!(out[0], C64::new(8.0, 2.0));
        assert_eq!(out[1], C64::new(6.0, 12.0));
    }
}
