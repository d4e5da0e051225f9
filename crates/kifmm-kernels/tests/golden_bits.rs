//! Golden-bits gate: the multi-RHS near-field loops must reproduce, bit
//! for bit, what the four hand-fused loops per kernel produced before they
//! were merged into two (PR 12).
//!
//! Each constant is FNV-1a over the IEEE-754 bit patterns of every output
//! of `p2p_many` (`POT`) and `p2p_grad_many` (`GRAD`) on two fixed seeded
//! blocks, captured at the parent commit of that merge. The blocks carry a
//! coincident pair, pre-seeded (non-zero) outputs, a source count that is
//! not a multiple of the 4-lane `simd::dot` width and one past the
//! 128-entry stack weight buffer; k = 9 crosses the 8-RHS sweep boundary.
//!
//! The table is asserted twice, on the vector microkernels and on their
//! scalar twins (`simd::set_force_scalar`): the two promise identical
//! bits, so one set of constants pins both.
//!
//! `ModifiedLaplace` and `Gaussian` call the platform `exp`, which IEEE-754
//! does not require to be correctly rounded: on a libm other than the one
//! the constants were captured with, only those rows may differ.

use kifmm_kernels::{
    CustomKernel, Gaussian, Kelvin, Kernel, Laplace, LaplaceDipole, ModifiedLaplace, Point3, Stokes,
};

const KS: [usize; 3] = [1, 3, 9];

/// `(kernel name, [POT hash; k = 1, 3, 9], [GRAD hash; k = 1, 3, 9])`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 3], [u64; 3]); 7] = [
    ("Laplace", [0xc937ee396ff7e594, 0x7f5cc36a3cd9fcb8, 0x1a7651f56d43fc41], [0x7890ff687c447252, 0x2368af7fc3c9a6b4, 0x140fcaae81c28767]),
    ("ModifiedLaplace", [0xa83b58976e85f3b0, 0xecfa3cf3a8698db0, 0xb50ec4d2471881ab], [0xe79097966c494702, 0xc3f58a5a7cb3f9cc, 0x42a74e3398e61d76]),
    ("Gaussian", [0xe56abdf4a28efbd8, 0x1c53b62379f2fbf6, 0xbe87b0e7ef26e1b2], [0x3f1bb95e51bf8f03, 0x067d5bbebd3d1fd3, 0xbcb66dfec79df046]),
    ("Stokes", [0xa2b8c27b48a63abb, 0x7c0e63b1bbf96c4d, 0xf2926d629ea0503a], [0xc18259b3636093ca, 0x3aed585690f24945, 0x1811fc72f0bbe5d1]),
    ("Kelvin", [0x197a76fa9655f646, 0xa1f28e3fd0b87a3b, 0x8ab55e91fe5fc6f4], [0x965a0e3b658929df, 0xd59c48fe412bd7a0, 0x33b5b8f99bebdb94]),
    ("LaplaceDipole", [0x9ff24c23516c694b, 0xba82f2ad75316d64, 0x9d027b0e9ebb7dd1], [0xdf8e53bf0c4e82be, 0xf35a53dfb598a1ff, 0xa8063d1f9cb0e0a8]),
    ("golden-closure", [0x7da7453adf09be07, 0x81acb646ed37e895, 0x82bf9560fe3939dc], [0x646e00b774d16c25, 0xa963adc49e211da3, 0x9bcadee2d851c4fc]),
];

/// Deterministic LCG doubles in `(-1, 1)`.
fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect()
}

fn points(n: usize, seed: u64) -> Vec<Point3> {
    noise(3 * n, seed).chunks(3).map(|c| [c[0], c[1], c[2]]).collect()
}

fn fnv1a(h: &mut u64, values: &[f64]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100000001b3);
        }
    }
}

/// `(POT, GRAD)` hashes of one kernel at batch width `k` over both blocks.
fn hashes<K: Kernel>(kernel: &K, k: usize) -> (u64, u64) {
    let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
    let (mut pot_hash, mut grad_hash) = (0xcbf29ce484222325u64, 0xcbf29ce484222325u64);
    for (block, (nt, ns)) in [(23usize, 61usize), (7, 129)].into_iter().enumerate() {
        let b = block as u64;
        let targets = points(nt, 101 + b);
        let mut sources = points(ns, 202 + b);
        sources[ns / 2] = targets[nt / 3];
        let dens: Vec<Vec<f64>> = (0..k).map(|q| noise(ns * sd, 303 + 17 * q as u64 + b)).collect();
        let dens_refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
        let seeded = |dim: usize, salt: u64| -> Vec<Vec<f64>> {
            (0..k).map(|q| noise(nt * dim, salt + q as u64)).collect()
        };

        let mut pots = seeded(td, 404 + b);
        let mut pot_refs: Vec<&mut [f64]> = pots.iter_mut().map(Vec::as_mut_slice).collect();
        kernel.p2p_many(&targets, &sources, &dens_refs, &mut pot_refs);
        for p in &pots {
            fnv1a(&mut pot_hash, p);
        }

        let mut pots = seeded(td, 505 + b);
        let mut grads = seeded(td * 3, 606 + b);
        let mut pot_refs: Vec<&mut [f64]> = pots.iter_mut().map(Vec::as_mut_slice).collect();
        let mut grad_refs: Vec<&mut [f64]> = grads.iter_mut().map(Vec::as_mut_slice).collect();
        kernel.p2p_grad_many(&targets, &sources, &dens_refs, &mut pot_refs, &mut grad_refs);
        for (p, g) in pots.iter().zip(&grads) {
            fnv1a(&mut grad_hash, p);
            fnv1a(&mut grad_hash, g);
        }
    }
    (pot_hash, grad_hash)
}

fn row<K: Kernel>(kernel: &K) -> (String, [u64; 3], [u64; 3]) {
    let (mut pot, mut grad) = ([0; 3], [0; 3]);
    for (i, &k) in KS.iter().enumerate() {
        (pot[i], grad[i]) = hashes(kernel, k);
    }
    (kernel.name().to_string(), pot, grad)
}

#[test]
fn near_field_loops_match_parent_commit_bits() {
    // A 2×3 closure through the trait's generic (eval-based) defaults,
    // gradients by central difference.
    let closure = CustomKernel::new("golden-closure", 3, 2, Some(-1.0), |x, y, block| {
        let d = [x[0] - y[0], x[1] - y[1], x[2] - y[2]];
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if r2 == 0.0 {
            block.fill(0.0);
            return;
        }
        let inv_r = 1.0 / r2.sqrt();
        for (j, dj) in d.iter().enumerate() {
            block[j] = dj * inv_r;
            block[3 + j] = (1.0 + dj) * inv_r * inv_r;
        }
    });
    for scalar in [true, false] {
        kifmm_linalg::simd::set_force_scalar(scalar);
        let got = [
            row(&Laplace),
            row(&ModifiedLaplace::new(1.3)),
            row(&Gaussian::new(0.8)),
            row(&Stokes::new(0.7)),
            row(&Kelvin::new(1.1, 0.3)),
            row(&LaplaceDipole),
            row(&closure),
        ];
        let same = got.iter().zip(&GOLDEN).all(|(g, w)| g.0 == w.0 && g.1 == w.1 && g.2 == w.2);
        if !same {
            let hex = |h: &[u64; 3]| format!("[{:#018x}, {:#018x}, {:#018x}]", h[0], h[1], h[2]);
            for (name, pot, grad) in &got {
                eprintln!("    (\"{name}\", {}, {}),", hex(pot), hex(grad));
            }
            panic!(
                "near-field output bits (force_scalar = {scalar}) differ from the golden table \
                 (computed rows above)"
            );
        }
    }
}
