//! Reproduction harness for the evaluation section (§4) of the SC'03
//! paper: one binary per table/figure, built on a shared runner.
//!
//! # Virtual timing model
//!
//! The paper measured wall-clock on 3000 dedicated Alpha EV-68 CPUs and a
//! Quadrics interconnect. This reproduction runs its MPI ranks as threads
//! on one host, so it reports a *virtual* parallel time composed from two
//! honestly measured ingredients:
//!
//! * **computation** — per-rank, per-phase **thread CPU time** (valid
//!   under core oversubscription) over exactly the same work distribution
//!   a real cluster would execute;
//! * **communication** — the per-rank traffic (bytes, messages) actually
//!   sent through the message-passing substrate, priced by a
//!   latency/bandwidth model of the paper's interconnect
//!   ([`CommModel`]: 5 µs/message, 500 MB/s — the Quadrics figures from
//!   §4).
//!
//! `T(P) = avg_ranks(compute + comm_model)`, `Ratio = max/min` across
//! ranks — the same definitions as the paper's Table 4.1 caption. Flop
//! rates use *exact counted* flops (every kernel evaluation, GEMV, FFT and
//! Hadamard product is charged), so "Gflop/s" columns are counted-flops
//! per virtual second. Absolute numbers reflect this host, not a 2003
//! Alphaserver; the *shapes* (who wins, where efficiency decays, phase
//! mix) are the reproduction targets. See DESIGN.md §1 and EXPERIMENTS.md.

use kifmm::core::PrecomputeCache;
use kifmm::parallel::ParallelFmm;
use kifmm::tree::partition_points;
use kifmm::{FmmOptions, Kernel, Phase, PhaseStats, Point3};
use std::sync::Arc;

/// Latency/bandwidth communication model (defaults: the paper's Quadrics
/// interconnect — >500 MB/s per node, ~5 µs MPI latency).
#[derive(Clone, Copy, Debug)]
pub struct CommModel {
    /// Seconds per message.
    pub latency: f64,
    /// Bytes per second.
    pub bandwidth: f64,
}

impl Default for CommModel {
    fn default() -> Self {
        CommModel { latency: 5e-6, bandwidth: 500e6 }
    }
}

impl CommModel {
    /// Virtual seconds to move `bytes` in `msgs` messages.
    pub fn time(&self, bytes: u64, msgs: u64) -> f64 {
        msgs as f64 * self.latency + bytes as f64 / self.bandwidth
    }
}

/// Everything measured on one rank during a run.
#[derive(Clone, Debug)]
pub struct RankMetrics {
    /// Per-phase CPU seconds and counted flops (averaged over iterations).
    pub phases: PhaseStats,
    /// Bytes sent during the measured evaluations (per iteration).
    pub eval_bytes: u64,
    /// Messages sent during the measured evaluations (per iteration).
    pub eval_msgs: u64,
    /// Wall seconds in tree construction/lists/ownership/ghost exchange.
    pub setup_seconds: f64,
    /// Bytes sent during setup.
    pub setup_bytes: u64,
    /// Messages sent during setup.
    pub setup_msgs: u64,
    /// Points this rank owns.
    pub local_points: usize,
}

impl RankMetrics {
    /// CPU seconds of computation (everything except the Comm phase).
    pub fn compute_seconds(&self) -> f64 {
        self.phases.total_seconds() - self.phases.seconds[Phase::Comm as usize]
    }
}

/// Run one distributed interaction calculation over `ranks` virtual ranks
/// and collect per-rank metrics. The evaluation is repeated `iterations`
/// times and averaged (the paper averages "over several iterations").
pub fn run_distributed<K: Kernel>(
    kernel: K,
    all_points: &[Point3],
    ranks: usize,
    opts: FmmOptions,
    iterations: usize,
) -> Vec<RankMetrics> {
    assert!(iterations >= 1);
    let chunks = Arc::new(partition_points(all_points, ranks).gather(all_points));
    let cache = Arc::new(PrecomputeCache::<K>::new());
    kifmm::mpi::run(ranks, move |comm| {
        let r = comm.rank();
        let local = &chunks[r];
        let dens = kifmm::geom::random_densities(local.len(), kernel.src_dim(), r as u64 + 1);
        let pfmm = ParallelFmm::with_cache(comm, kernel.clone(), local, opts, &cache);
        let after_setup = comm.stats();
        let mut phases = PhaseStats::new();
        for _ in 0..iterations {
            let stats = pfmm.eval(comm, &dens).stats;
            phases.merge(&stats);
        }
        for s in phases.seconds.iter_mut() {
            *s /= iterations as f64;
        }
        for f in phases.flops.iter_mut() {
            *f /= iterations as u64;
        }
        let after_eval = comm.stats();
        RankMetrics {
            phases,
            eval_bytes: (after_eval.bytes_sent - after_setup.bytes_sent) / iterations as u64,
            eval_msgs: (after_eval.messages_sent - after_setup.messages_sent)
                / iterations as u64,
            setup_seconds: pfmm.setup_seconds,
            setup_bytes: after_setup.bytes_sent,
            setup_msgs: after_setup.messages_sent,
            local_points: local.len(),
        }
    })
}

/// One row of a Table-4.1/4.2-style report.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Rank count.
    pub p: usize,
    /// Average virtual total seconds of the interaction calculation.
    pub total: f64,
    /// Max/min virtual total across ranks (load imbalance).
    pub ratio: f64,
    /// Average virtual communication seconds.
    pub comm: f64,
    /// Average upward-pass seconds.
    pub up: f64,
    /// Average downward seconds (DownU+V+W+X+Eval).
    pub down: f64,
    /// Aggregate counted Gflop / virtual second.
    pub avg_gflops: f64,
    /// Aggregate rate scaled by the fastest rank (the paper's Peak).
    pub peak_gflops: f64,
    /// Tree generation + its communication, virtual seconds.
    pub tree: f64,
    /// Total counted flops per iteration.
    pub total_flops: u64,
    /// Global particle count.
    pub n: usize,
}

/// Reduce per-rank metrics to a table row under a communication model.
pub fn summarize(metrics: &[RankMetrics], model: &CommModel) -> TableRow {
    let p = metrics.len();
    let totals: Vec<f64> = metrics
        .iter()
        .map(|m| m.compute_seconds() + model.time(m.eval_bytes, m.eval_msgs))
        .collect();
    let avg_total = totals.iter().sum::<f64>() / p as f64;
    let max_total = totals.iter().cloned().fold(0.0f64, f64::max);
    let min_total = totals.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-12);
    let comm: f64 = metrics
        .iter()
        .map(|m| model.time(m.eval_bytes, m.eval_msgs))
        .sum::<f64>()
        / p as f64;
    let up: f64 =
        metrics.iter().map(|m| m.phases.seconds[Phase::Up as usize]).sum::<f64>() / p as f64;
    let down: f64 = metrics
        .iter()
        .map(|m| m.phases.down_seconds())
        .sum::<f64>()
        / p as f64;
    let total_flops: u64 = metrics.iter().map(|m| m.phases.total_flops()).sum();
    let avg_gflops = total_flops as f64 / avg_total.max(1e-12) / 1e9;
    let peak_gflops = total_flops as f64 / max_total.max(1e-12) / 1e9 * (max_total / min_total);
    let tree: f64 = metrics
        .iter()
        .map(|m| m.setup_seconds + model.time(m.setup_bytes, m.setup_msgs))
        .sum::<f64>()
        / p as f64;
    let n: usize = metrics.iter().map(|m| m.local_points).sum();
    TableRow {
        p,
        total: avg_total,
        ratio: max_total / min_total,
        comm,
        up,
        down,
        avg_gflops,
        peak_gflops,
        tree,
        total_flops,
        n,
    }
}

/// Print the standard header of Tables 4.1–4.3.
pub fn print_table_header(title: &str) {
    println!("\n{title}");
    println!(
        "{:>5} {:>9} {:>6} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9}",
        "P", "Total", "Ratio", "Comm", "Up", "Down", "Avg", "Peak", "Gen/Comm"
    );
    println!(
        "{:>5} {:>9} {:>6} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9}",
        "", "(s)", "", "(s)", "(s)", "(s)", "GF/s", "GF/s", "(s)"
    );
}

/// Print one row in the paper's format.
pub fn print_table_row(row: &TableRow) {
    println!(
        "{:>5} {:>9.3} {:>6.2} {:>8.4} {:>8.3} {:>9.3} {:>8.3} {:>8.3} {:>9.3}",
        row.p, row.total, row.ratio, row.comm, row.up, row.down, row.avg_gflops,
        row.peak_gflops, row.tree
    );
}

/// Aggregate per-phase CPU microseconds per particle (the paper's
/// "aggregate CPU cycles per particle", in time units instead of cycles —
/// multiply by the clock to get cycles).
pub fn phase_us_per_particle(metrics: &[RankMetrics], n: usize) -> [f64; 7] {
    let mut out = [0.0; 7];
    for m in metrics {
        for (i, s) in m.phases.seconds.iter().enumerate() {
            out[i] += s * 1e6 / n as f64;
        }
    }
    out
}

/// Environment-variable override helper for bench sizing.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Rank counts to sweep, capped by `KIFMM_MAXP` (default `max_default`).
pub fn rank_sweep(max_default: usize) -> Vec<usize> {
    let cap = env_usize("KIFMM_MAXP", max_default);
    [1usize, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .filter(|&p| p <= cap)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm::Laplace;

    #[test]
    fn comm_model_pricing() {
        let m = CommModel::default();
        assert!((m.time(500_000_000, 0) - 1.0).abs() < 1e-12);
        assert!((m.time(0, 200_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn harness_runs_and_summarizes() {
        let pts = kifmm::geom::sphere_grid(3000, 4);
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 40, ..Default::default() };
        let metrics = run_distributed(Laplace, &pts, 2, opts, 1);
        assert_eq!(metrics.len(), 2);
        let row = summarize(&metrics, &CommModel::default());
        assert_eq!(row.p, 2);
        assert_eq!(row.n, 3000);
        assert!(row.total > 0.0);
        assert!(row.ratio >= 1.0);
        assert!(row.total_flops > 0);
        // Two ranks must have exchanged something.
        assert!(metrics.iter().map(|m| m.eval_bytes).sum::<u64>() > 0);
    }

    #[test]
    fn rank_sweep_capped() {
        std::env::remove_var("KIFMM_MAXP");
        assert_eq!(rank_sweep(8), vec![1, 2, 4, 8]);
    }
}
