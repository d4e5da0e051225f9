//! Cross-path gate for `scripts/verify.sh`: a tiny problem evaluated by
//! all three drivers (serial, shared-memory pool, distributed P=4) must
//! agree — serial vs pool bit-identically (one engine, one task order),
//! distributed vs serial to 1e-12 relative l2 (owner-side summation of
//! partial equivalents reassociates additions, nothing more). The matrix
//! covers both M2L execution modes per kernel: Fft and the dense oracle.
//!
//! Exits nonzero (panics) on any disagreement.

use kifmm::{Fmm, FmmOptions, Kernel, Laplace, M2lMode, Stokes};
use kifmm_testkit::check_matches_serial_opts;

fn check_paths<K: Kernel>(name: &str, kernel: K, pts: Vec<[f64; 3]>, mode: M2lMode) {
    let n = pts.len();
    let dens = kifmm::geom::random_densities(n, kernel.src_dim(), 9);
    let opts =
        FmmOptions { order: 4, max_pts_per_leaf: 20, m2l_mode: mode, ..Default::default() };

    let mut fmm = Fmm::builder(kernel.clone()).points(&pts).options(opts).build();
    let serial = fmm.eval(&dens).potentials;
    fmm.set_parallel_eval(true);
    let pool = fmm.eval(&dens).potentials;
    assert_eq!(serial, pool, "{name}: pool path must be bit-identical to serial");
    println!("cross-path {name}: serial == pool (bitwise) OK");

    let sd = kernel.src_dim();
    check_matches_serial_opts(kernel, pts, 4, sd, 1e-12, opts);
    println!("cross-path {name}: distributed P=4 within 1e-12 OK");
}

fn main() {
    let uni = kifmm::geom::uniform_cube(600, 31);
    let clu = kifmm::geom::corner_clusters(450, 32);
    check_paths("laplace/uniform/fft", Laplace, uni.clone(), M2lMode::Fft);
    check_paths("laplace/uniform/direct", Laplace, uni, M2lMode::Direct);
    check_paths("stokes/clustered/fft", Stokes::default(), clu.clone(), M2lMode::Fft);
    check_paths("stokes/clustered/direct", Stokes::default(), clu, M2lMode::Direct);
    println!("cross-path gate: ALL OK");
}
