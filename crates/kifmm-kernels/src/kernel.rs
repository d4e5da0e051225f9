//! The kernel-independence boundary: the [`Kernel`] trait.

use crate::Point3;

/// A fundamental solution `G(x, y)` of a second-order constant-coefficient
/// non-oscillatory elliptic PDE (the class the paper's method covers), or
/// more generally any smooth translation-invariant interaction kernel the
/// equivalent-density machinery can compress (e.g. the Gaussian of
/// kernel-matrix matvecs).
///
/// **A kernel is [`eval`](Kernel::eval)** (plus, optionally, an analytic
/// [`eval_grad`](Kernel::eval_grad)): the FMM interacts with the PDE only
/// through pairwise evaluations, and everything else here has a default
/// built on them. Matrix-valued kernels (Stokes, Kelvin) declare
/// `src_dim`/`trg_dim > 1` and fill a `trg_dim × src_dim` block per point
/// pair. The dimensions are **runtime methods**, not associated constants,
/// so closure-backed kernels ([`crate::CustomKernel`]) with caller-chosen
/// dimensions drive the identical pipeline — the kernel-independence claim
/// made executable.
///
/// The near field runs through two accumulators, one per output kind:
/// [`p2p_many`](Kernel::p2p_many) (potentials) and
/// [`p2p_grad_many`](Kernel::p2p_grad_many) (potentials + gradients), each
/// over `k ≥ 1` right-hand sides. Their defaults evaluate the block once
/// per pair; an analytic kernel **may** override each with one hand-written
/// loop that shares the pair geometry across the batch. The single-RHS
/// [`p2p`](Kernel::p2p) / [`p2p_grad`](Kernel::p2p_grad) are provided
/// forwards with `k = 1` and are not meant to be overridden (no kernel in
/// this workspace does; `scripts/verify.sh` greps for it), so each RHS of
/// a batch is bit-identical to a single-RHS call by construction.
///
/// Requirements inherited from the paper (§2): `G` is smooth away from the
/// singularity and its far field is low-rank enough for the equivalent
/// densities to represent — for PDE kernels this follows from unique
/// solvability of the underlying Dirichlet problems, and it is the
/// responsibility of the implementor.
pub trait Kernel: Clone + Send + Sync + 'static {
    /// Components of a source density (1 for scalar kernels, 3 for Stokes).
    fn src_dim(&self) -> usize;

    /// Components of a target potential.
    fn trg_dim(&self) -> usize;

    /// Human-readable name used in reports and folded (with
    /// [`id_bits`](Kernel::id_bits)) into plan-cache identity.
    fn name(&self) -> &str;

    /// Degree `d` with `G(λ·r) = λ^d · G(r)` when the kernel is homogeneous
    /// (Laplace and Stokes: `−1`), or `None` (modified Laplace and the
    /// Gaussian, whose length scales break homogeneity). Homogeneous
    /// kernels let the FMM precompute translation operators at one
    /// reference level and rescale; inhomogeneous ones get per-level
    /// operators.
    fn homogeneity(&self) -> Option<f64>;

    /// Exact flop count charged per `(target, source)` pair evaluation,
    /// including the accumulation into the potential. Square roots,
    /// divisions and exponentials count as one flop each (the convention
    /// used by the paper-era Gflop/s reporting).
    fn flops_per_eval(&self) -> u64;

    /// Flop count charged per pair for a **fused** potential + gradient
    /// accumulation ([`p2p_grad_many`](Kernel::p2p_grad_many)). The default
    /// models the generic path (one block eval plus three derivative
    /// components).
    fn flops_per_grad_eval(&self) -> u64 {
        4 * self.flops_per_eval()
    }

    /// Evaluate the `trg_dim × src_dim` kernel block for the pair `(x, y)`
    /// into `block` (row-major). A coincident pair (`|x − y| = 0`) must
    /// produce a zero block: the N-body sums of the paper exclude the
    /// self-interaction.
    fn eval(&self, x: Point3, y: Point3, block: &mut [f64]);

    /// Evaluate the target-gradient block `∇ₓG(x, y)` into `block`
    /// (row-major, `trg_dim·3` rows × `src_dim` columns): entry
    /// `[(t·3 + d)·src_dim + s] = ∂G[t, s]/∂x_d`. A coincident pair must
    /// produce a zero block, matching [`eval`](Kernel::eval).
    ///
    /// The default is a central difference of [`eval`](Kernel::eval) with
    /// a separation-scaled step — accurate to ~`h²` (≈1e-8 relative) and
    /// good enough for black-box closures; analytic kernels override.
    fn eval_grad(&self, x: Point3, y: Point3, block: &mut [f64]) {
        central_difference_grad(self, x, y, block);
    }

    /// Kernel-parameter fingerprint for cache keys: the bit patterns of
    /// every scalar parameter the translation operators depend on, folded
    /// into one word. Parameter-free kernels return 0 (the kernel *name*
    /// is hashed into cache keys separately, so only same-name parameter
    /// collisions matter).
    fn id_bits(&self) -> u64 {
        0
    }

    /// Accumulate `u(x_i) += Σ_j G(x_i, y_j) φ_j` for all targets:
    /// [`p2p_many`](Kernel::p2p_many) with one right-hand side.
    ///
    /// `densities` has `src_dim` interleaved components per source;
    /// `potentials` has `trg_dim` per target.
    fn p2p(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[f64],
        potentials: &mut [f64],
    ) {
        self.p2p_many(targets, sources, &[densities], &mut [potentials]);
    }

    /// Accumulate `u_q(x_i) += Σ_j G(x_i, y_j) φ_{q,j}` for `k =
    /// densities.len()` independent density vectors over one target/source
    /// geometry — the `DownU` (dense interaction) microkernel, which
    /// dominates the flop count at small `s`. Every slice length is
    /// checked (`src_dim` per source, `trg_dim` per target); a mismatch
    /// panics.
    ///
    /// The default evaluates each pair's block once — one target's row of
    /// blocks at a time — and applies the row to every right-hand side. An
    /// override must leave each `potentials[q]` independent of `k` and of
    /// the other right-hand sides: pair geometry (distances, `sqrt`, `exp`)
    /// is a deterministic function of the points alone and may be shared,
    /// the accumulation order over sources may not depend on the batch.
    fn p2p_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
    ) {
        let (sd, td) = (self.src_dim(), self.trg_dim());
        check_shapes((sd, td), targets.len(), sources.len(), densities, potentials, None);
        let mut blocks = vec![0.0; sources.len() * td * sd];
        for (ti, &x) in targets.iter().enumerate() {
            for (block, &y) in blocks.chunks_exact_mut(td * sd).zip(sources) {
                self.eval(x, y, block);
            }
            for (dens, pot) in densities.iter().zip(potentials.iter_mut()) {
                apply_blocks(&blocks, sd, dens, &mut pot[ti * td..(ti + 1) * td]);
            }
        }
    }

    /// Fused potential **and** gradient accumulation for one right-hand
    /// side: [`p2p_grad_many`](Kernel::p2p_grad_many) with `k = 1`.
    fn p2p_grad(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[f64],
        potentials: &mut [f64],
        gradients: &mut [f64],
    ) {
        self.p2p_grad_many(targets, sources, &[densities], &mut [potentials], &mut [gradients]);
    }

    /// Fused potential **and** gradient accumulation over `k` right-hand
    /// sides: `u_q(x_i) += Σ_j G(x_i, y_j) φ_{q,j}` into `potentials[q]`
    /// (`trg_dim` per target) and `∇u_q(x_i) += Σ_j ∇ₓG(x_i, y_j) φ_{q,j}`
    /// into `gradients[q]` (`trg_dim·3` per target, component-major: entry
    /// `[i·trg_dim·3 + t·3 + d] = ∂u_t/∂x_d`). Lengths are checked as in
    /// [`p2p_many`](Kernel::p2p_many).
    ///
    /// The default evaluates [`eval`](Kernel::eval) and
    /// [`eval_grad`](Kernel::eval_grad) once per pair and applies each
    /// target's row of blocks to every right-hand side; analytic kernels
    /// override with a loop sharing the pair geometry, under the same
    /// per-RHS independence rule.
    fn p2p_grad_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
        gradients: &mut [&mut [f64]],
    ) {
        let (sd, td) = (self.src_dim(), self.trg_dim());
        let (nt, ns) = (targets.len(), sources.len());
        check_shapes((sd, td), nt, ns, densities, potentials, Some(gradients));
        let mut blocks = vec![0.0; ns * td * sd];
        let mut gblocks = vec![0.0; ns * td * 3 * sd];
        for (ti, &x) in targets.iter().enumerate() {
            for ((block, gblock), &y) in blocks
                .chunks_exact_mut(td * sd)
                .zip(gblocks.chunks_exact_mut(td * 3 * sd))
                .zip(sources)
            {
                self.eval(x, y, block);
                self.eval_grad(x, y, gblock);
            }
            for ((dens, pot), grad) in
                densities.iter().zip(potentials.iter_mut()).zip(gradients.iter_mut())
            {
                apply_blocks(&blocks, sd, dens, &mut pot[ti * td..(ti + 1) * td]);
                apply_blocks(&gblocks, sd, dens, &mut grad[ti * td * 3..(ti + 1) * td * 3]);
            }
        }
    }
}

/// One target's row of per-source kernel (or gradient) blocks applied to
/// one density vector: `out[row] += Σ_b block[row·sd + b] · dens[b]`,
/// source after source. Rows are outermost so each output's running sum
/// stays in a register; the order of additions into it is the source order.
fn apply_blocks(blocks: &[f64], sd: usize, dens: &[f64], out: &mut [f64]) {
    let rows = out.len();
    for (row, o) in out.iter_mut().enumerate() {
        let mut sum = *o;
        for (block, d) in blocks.chunks_exact(rows * sd).zip(dens.chunks_exact(sd)) {
            let mut acc = 0.0;
            for (g, dj) in block[row * sd..(row + 1) * sd].iter().zip(d) {
                acc += g * dj;
            }
            sum += acc;
        }
        *o = sum;
    }
}

/// Panic unless the batch is well-formed: one potential (and gradient)
/// vector per density vector, `sd` density entries per source, `td`
/// potential and `3·td` gradient entries per target. These are real
/// `assert`s: the fused loops index — and the SIMD microkernels behind
/// them ([`kifmm_linalg::simd::inv_dist_dots`], [`kifmm_linalg::simd::dot`])
/// load — out to exactly these lengths.
pub(crate) fn check_shapes(
    (sd, td): (usize, usize),
    nt: usize,
    ns: usize,
    densities: &[&[f64]],
    potentials: &[&mut [f64]],
    gradients: Option<&[&mut [f64]]>,
) {
    assert_eq!(densities.len(), potentials.len(), "one potential vector per RHS");
    for (dens, pot) in densities.iter().zip(potentials) {
        assert_eq!(dens.len(), ns * sd, "src_dim density entries per source");
        assert_eq!(pot.len(), nt * td, "trg_dim potential entries per target");
    }
    if let Some(gradients) = gradients {
        assert_eq!(densities.len(), gradients.len(), "one gradient vector per RHS");
        for grad in gradients {
            assert_eq!(grad.len(), nt * td * 3, "3·trg_dim gradient entries per target");
        }
    }
}

/// Central-difference `∇ₓG` fallback shared by the trait default and
/// [`crate::CustomKernel`]: step `h` scaled to the pair separation
/// (`h = r·6e-6 ≈ ∛ε·r` balances truncation against cancellation), calling
/// only [`Kernel::eval`].
pub fn central_difference_grad<K: Kernel + ?Sized>(
    kernel: &K,
    x: Point3,
    y: Point3,
    block: &mut [f64],
) {
    let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
    debug_assert_eq!(block.len(), td * 3 * sd);
    let (_, _, _, r2) = displacement(x, y);
    if r2 == 0.0 {
        block.fill(0.0);
        return;
    }
    let h = r2.sqrt() * 6e-6;
    let mut plus = vec![0.0; td * sd];
    let mut minus = vec![0.0; td * sd];
    for d in 0..3 {
        let mut xp = x;
        xp[d] += h;
        let mut xm = x;
        xm[d] -= h;
        kernel.eval(xp, y, &mut plus);
        kernel.eval(xm, y, &mut minus);
        let inv2h = 1.0 / (2.0 * h);
        for t in 0..td {
            for s in 0..sd {
                block[(t * 3 + d) * sd + s] = (plus[t * sd + s] - minus[t * sd + s]) * inv2h;
            }
        }
    }
}

/// Squared distance plus the displacement, shared by all kernels.
#[inline(always)]
pub(crate) fn displacement(x: Point3, y: Point3) -> (f64, f64, f64, f64) {
    let dx = x[0] - y[0];
    let dy = x[1] - y[1];
    let dz = x[2] - y[2];
    (dx, dy, dz, dx * dx + dy * dy + dz * dz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gaussian, Kelvin, Laplace, LaplaceDipole, ModifiedLaplace, Stokes};

    /// Each RHS of a batch must be bit-identical to a single-RHS call —
    /// the property `eval_many` relies on. `p2p`/`p2p_grad` forward to the
    /// `_many` loops with k = 1, so what this pins is that a right-hand
    /// side's result does not depend on the batch around it: k crosses the
    /// `SWEEP`-RHS boundary of the one-pass loops (8 | 9, 16 | 17), ns the
    /// 128-entry stack/heap boundary of the weight buffer and every
    /// remainder class of the 4-source SIMD blocks, and empty source/target
    /// sets must be no-ops. Every non-empty shape carries a coincident
    /// target/source pair (the self-skip path).
    fn check_p2p_many_bitwise<K: Kernel>(kernel: &K) {
        for (nt, ns) in [(7, 9), (7, 0), (7, 1), (7, 2), (7, 3), (7, 6), (7, 129), (7, 131), (0, 9)]
        {
            for k in [1, 2, 8, 9, 17] {
                check_p2p_many_bitwise_at(kernel, nt, ns, k);
            }
        }
    }

    fn check_p2p_many_bitwise_at<K: Kernel>(kernel: &K, nt: usize, ns: usize, k: usize) {
        let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
        let targets: Vec<Point3> = (0..nt)
            .map(|i| {
                let t = i as f64;
                [(t * 0.31).sin(), (t * 0.17).cos() * 0.8, (t * 0.53).sin() * 0.6]
            })
            .collect();
        let mut sources: Vec<Point3> = (0..ns)
            .map(|i| {
                let t = i as f64 + 0.5;
                [(t * 0.23).cos(), (t * 0.41).sin() * 0.9, (t * 0.11).cos() * 0.7]
            })
            .collect();
        if nt > 2 && ns > 0 {
            sources[ns / 2] = targets[2];
        }
        let dens: Vec<Vec<f64>> = (0..k)
            .map(|q| {
                (0..ns * sd)
                    .map(|i| ((i * 7 + q * 13) % 29) as f64 / 29.0 - 0.4)
                    .collect()
            })
            .collect();
        let what = format!("{} nt={nt} ns={ns} k={k}", kernel.name());

        // Reference: k independent p2p calls into pre-seeded outputs.
        let seed: Vec<f64> = (0..nt * td).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut expect: Vec<Vec<f64>> = (0..k).map(|_| seed.clone()).collect();
        for q in 0..k {
            kernel.p2p(&targets, &sources, &dens[q], &mut expect[q]);
        }

        let mut got: Vec<Vec<f64>> = (0..k).map(|_| seed.clone()).collect();
        {
            let dens_refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
            let mut pot_refs: Vec<&mut [f64]> =
                got.iter_mut().map(Vec::as_mut_slice).collect();
            kernel.p2p_many(&targets, &sources, &dens_refs, &mut pot_refs);
        }
        for q in 0..k {
            assert_eq!(got[q], expect[q], "{what}: RHS {q} not bitwise equal");
        }
        if ns == 0 {
            assert_eq!(got[0], seed, "{what}: no sources must leave the output untouched");
        }

        // The same promise for the fused gradient accumulators.
        let gseed: Vec<f64> = (0..nt * td * 3).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut pexp: Vec<Vec<f64>> = (0..k).map(|_| seed.clone()).collect();
        let mut gexp: Vec<Vec<f64>> = (0..k).map(|_| gseed.clone()).collect();
        for q in 0..k {
            kernel.p2p_grad(&targets, &sources, &dens[q], &mut pexp[q], &mut gexp[q]);
        }
        let mut pgot: Vec<Vec<f64>> = (0..k).map(|_| seed.clone()).collect();
        let mut ggot: Vec<Vec<f64>> = (0..k).map(|_| gseed.clone()).collect();
        {
            let dens_refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
            let mut pot_refs: Vec<&mut [f64]> =
                pgot.iter_mut().map(Vec::as_mut_slice).collect();
            let mut grad_refs: Vec<&mut [f64]> =
                ggot.iter_mut().map(Vec::as_mut_slice).collect();
            kernel.p2p_grad_many(&targets, &sources, &dens_refs, &mut pot_refs, &mut grad_refs);
        }
        for q in 0..k {
            assert_eq!(pgot[q], pexp[q], "{what}: grad-pot RHS {q}");
            assert_eq!(ggot[q], gexp[q], "{what}: grad RHS {q}");
        }
        // The fused loop's potential is the potential loop's, to rounding
        // (the two may associate the per-pair products differently).
        for (a, b) in pgot.iter().flatten().zip(got.iter().flatten()) {
            assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{what}: fused potential {a} vs {b}");
        }
    }

    /// A Laplace `eval` behind the trait's generic (eval-based) defaults.
    #[derive(Clone)]
    struct Generic;
    impl Kernel for Generic {
        fn src_dim(&self) -> usize {
            1
        }
        fn trg_dim(&self) -> usize {
            1
        }
        fn name(&self) -> &str {
            "generic"
        }
        fn homogeneity(&self) -> Option<f64> {
            Some(-1.0)
        }
        fn flops_per_eval(&self) -> u64 {
            12
        }
        fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
            Laplace.eval(x, y, block)
        }
    }

    #[test]
    fn p2p_many_bitwise_all_kernels() {
        check_p2p_many_bitwise(&Laplace);
        check_p2p_many_bitwise(&ModifiedLaplace::new(1.3));
        check_p2p_many_bitwise(&Stokes::new(0.7));
        check_p2p_many_bitwise(&LaplaceDipole);
        check_p2p_many_bitwise(&Kelvin::new(1.1, 0.3));
        check_p2p_many_bitwise(&Gaussian::new(0.8));
    }

    #[test]
    fn p2p_many_default_matches_loop() {
        // Kernels without an override go through the trait's eval-based
        // defaults: a unit struct, and a 2×3 closure with runtime dims.
        check_p2p_many_bitwise(&Generic);
        let closure = crate::CustomKernel::new("rect", 3, 2, Some(-2.0), |x, y, block| {
            let mut b = [0.0; 3];
            LaplaceDipole.eval(x, y, &mut b);
            block[..3].copy_from_slice(&b);
            block[3..].copy_from_slice(&[b[2], -b[0], 0.5 * b[1]]);
        });
        check_p2p_many_bitwise(&closure);
    }

    /// The entry points check every slice length for real (not
    /// `debug_assert`): the fused loops index, and the SIMD microkernels
    /// load, out to the lengths the shape implies.
    #[test]
    fn wrong_length_slices_panic() {
        fn assert_panics(what: &str, f: impl FnOnce()) {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            assert!(caught.is_err(), "{what} must panic");
        }
        fn check<K: Kernel>(k: &K) {
            let t = [[0.1, 0.2, 0.3], [0.5, 0.1, 0.9]];
            let s = [[1.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.3, 0.3, 2.0]];
            let (sd, td) = (k.src_dim(), k.trg_dim());
            let (dens, short) = (vec![0.5; 3 * sd], vec![0.5; 3 * sd - 1]);
            let (mut pot, mut grad) = (vec![0.0; 2 * td], vec![0.0; 2 * td * 3]);
            let name = k.name();
            assert_panics(&format!("{name}: short densities"), || k.p2p(&t, &s, &short, &mut pot));
            assert_panics(&format!("{name}: long potentials"), || {
                k.p2p(&t, &s, &dens, &mut vec![0.0; 2 * td + 1])
            });
            assert_panics(&format!("{name}: RHS count mismatch"), || {
                k.p2p_many(&t, &s, &[&dens, &dens], &mut [&mut pot])
            });
            assert_panics(&format!("{name}: short densities (grad)"), || {
                k.p2p_grad(&t, &s, &short, &mut pot, &mut grad)
            });
            assert_panics(&format!("{name}: short gradients"), || {
                k.p2p_grad(&t, &s, &dens, &mut pot, &mut vec![0.0; 2 * td * 3 - 1])
            });
        }
        check(&Laplace);
        check(&ModifiedLaplace::new(1.3));
        check(&Gaussian::new(0.8));
        check(&Stokes::new(0.7));
        check(&Kelvin::new(1.1, 0.3));
        check(&LaplaceDipole);
        check(&Generic);
    }

    /// A non-finite source is not a coincident pair: through every
    /// kernel's `p2p_many` it poisons every potential, whether it falls in a
    /// 4-source SIMD block (ns = 4) or in the tail (ns = 5).
    #[test]
    fn nan_source_gives_nan_potentials() {
        fn check<K: Kernel>(k: &K) {
            let (sd, td) = (k.src_dim(), k.trg_dim());
            let t = [[0.1, 0.2, 0.3], [0.5, 0.1, 0.9]];
            for ns in [1, 4, 5] {
                let mut s: Vec<Point3> = (0..ns).map(|i| [1.0 + i as f64, 0.0, 0.5]).collect();
                s[ns - 1][1] = f64::NAN;
                let dens = vec![0.5; ns * sd];
                let mut pots = vec![vec![0.0; 2 * td]; 2];
                let mut refs: Vec<&mut [f64]> = pots.iter_mut().map(Vec::as_mut_slice).collect();
                k.p2p_many(&t, &s, &[&dens, &dens], &mut refs);
                for pot in &pots {
                    assert!(pot.iter().all(|v| v.is_nan()), "{} ns = {ns}: {pot:?}", k.name());
                }
            }
        }
        check(&Laplace);
        check(&ModifiedLaplace::new(1.3));
        check(&Gaussian::new(0.8));
        check(&Stokes::new(0.7));
        check(&Kelvin::new(1.1, 0.3));
        check(&LaplaceDipole);
        check(&Generic);
    }

    /// The analytic `eval_grad` overrides must agree with the generic
    /// central-difference fallback (which only calls `eval`).
    fn check_grad_against_central_difference<K: Kernel>(kernel: &K, tol: f64) {
        let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
        let x = [0.62, -0.35, 0.48];
        let y = [-0.21, 0.4, -0.17];
        let mut analytic = vec![0.0; td * 3 * sd];
        kernel.eval_grad(x, y, &mut analytic);
        let mut fd = vec![0.0; td * 3 * sd];
        central_difference_grad(kernel, x, y, &mut fd);
        let scale: f64 = analytic.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
        for (i, (a, b)) in analytic.iter().zip(&fd).enumerate() {
            assert!(
                (a - b).abs() <= tol * scale,
                "{} grad entry {i}: analytic {a} vs central-diff {b}",
                kernel.name()
            );
        }
    }

    #[test]
    fn analytic_gradients_match_central_difference() {
        check_grad_against_central_difference(&Laplace, 1e-8);
        check_grad_against_central_difference(&ModifiedLaplace::new(1.6), 1e-8);
        check_grad_against_central_difference(&Stokes::new(0.9), 1e-8);
        check_grad_against_central_difference(&Kelvin::new(1.3, 0.28), 1e-8);
        check_grad_against_central_difference(&Gaussian::new(0.7), 1e-8);
        // LaplaceDipole has no analytic override: the check is then the
        // fallback against itself and pins the zero-at-coincidence contract.
        check_grad_against_central_difference(&LaplaceDipole, 1e-12);
    }

    #[test]
    fn grad_zero_at_coincident_pair() {
        let mut b9 = vec![1.0; 3];
        Laplace.eval_grad([0.3; 3], [0.3; 3], &mut b9);
        assert!(b9.iter().all(|&v| v == 0.0));
        let mut b = vec![1.0; 27];
        Stokes::new(1.0).eval_grad([0.3; 3], [0.3; 3], &mut b);
        assert!(b.iter().all(|&v| v == 0.0));
        let mut b = vec![1.0; 27];
        Kelvin::new(1.0, 0.3).eval_grad([0.3; 3], [0.3; 3], &mut b);
        assert!(b.iter().all(|&v| v == 0.0));
        let mut b = vec![1.0; 3];
        Gaussian::new(0.5).eval_grad([0.3; 3], [0.3; 3], &mut b);
        assert!(b.iter().all(|&v| v == 0.0));
        let mut b = vec![1.0; 3];
        ModifiedLaplace::new(1.0).eval_grad([0.3; 3], [0.3; 3], &mut b);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn id_bits_distinguish_parameters() {
        assert_eq!(Laplace.id_bits(), 0);
        assert_ne!(ModifiedLaplace::new(1.0).id_bits(), ModifiedLaplace::new(2.0).id_bits());
        assert_ne!(Stokes::new(1.0).id_bits(), Stokes::new(0.5).id_bits());
        assert_ne!(Kelvin::new(1.0, 0.3).id_bits(), Kelvin::new(1.0, 0.25).id_bits());
        assert_ne!(Gaussian::new(0.5).id_bits(), Gaussian::new(0.6).id_bits());
    }
}
