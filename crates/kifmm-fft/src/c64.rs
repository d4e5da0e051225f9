//! A minimal `f64` complex number.

use std::ops::{Add, Mul, Sub};

/// Complex number with `f64` parts. `#[repr(C)]` so slices of `C64` can be
/// reinterpreted as interleaved re/im buffers if ever needed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };

    /// Construct from parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// A purely real value.
    #[inline]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        C64 { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64 { re: self.re, im: -self.im }
    }

    /// Squared modulus.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        C64 { re: self.re * s, im: self.im * s }
    }

    /// Fused multiply-accumulate: `self + a * b`.
    #[inline]
    pub fn mul_add(self, a: C64, b: C64) -> Self {
        C64 {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64 { re: self.re + o.re, im: self.im + o.im }
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64 { re: self.re - o.re, im: self.im - o.im }
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert_eq!(a.conj(), C64::new(1.0, -2.0));
        assert_eq!(a.norm_sqr(), 5.0);
    }

    #[test]
    fn cis_unit_circle() {
        let w = C64::cis(std::f64::consts::FRAC_PI_2);
        assert!((w.re).abs() < 1e-15);
        assert!((w.im - 1.0).abs() < 1e-15);
        assert!((C64::cis(0.3).abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let acc = C64::new(0.5, -0.25);
        let a = C64::new(2.0, 1.0);
        let b = C64::new(-1.0, 3.0);
        let r = acc.mul_add(a, b);
        let expect = acc + a * b;
        assert!((r.re - expect.re).abs() < 1e-15);
        assert!((r.im - expect.im).abs() < 1e-15);
    }
}
