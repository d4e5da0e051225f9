//! Reproduction harness for the evaluation section (§4) of the SC'03
//! paper: one runner ([`run_distributed`]), one sweep over rank counts per
//! experiment ([`sweep`]) printed as both its table and its figure, and
//! one pure verdict per experiment ([`gates`]).
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
//!   ([`comm_seconds`]: 5 µs/message, 500 MB/s — the Quadrics figures
//!   from §4).
//!
//! `T(P) = avg_ranks(compute + comm_model)`, `Ratio = max/min` across
//! ranks — the same definitions as the paper's Table 4.1 caption. Flop
//! rates use *exact counted* flops (every kernel evaluation, GEMV, FFT and
//! Hadamard product is charged), so "Gflop/s" columns are counted-flops
//! per virtual second. Absolute numbers reflect this host, not a 2003
//! Alphaserver; the *shapes* (who wins, where efficiency decays, phase
//! mix) are the reproduction targets. See DESIGN.md §1 and EXPERIMENTS.md.

pub mod gates;

use kifmm::core::PrecomputeCache;
use kifmm::parallel::ParallelFmm;
use kifmm::tree::{partition_points, Partition};
use kifmm::{FmmOptions, Kernel, Phase, PhaseStats, Point3, Tracer, PHASES, PHASE_NAMES};
use std::sync::Arc;

/// Virtual seconds to move `bytes` in `msgs` messages over the paper's
/// Quadrics interconnect (~5 µs MPI latency, >500 MB/s per node).
pub fn comm_seconds(bytes: u64, msgs: u64) -> f64 {
    msgs as f64 * 5e-6 + bytes as f64 / 500e6
}

/// The paper's evaluation setting: order-6 surfaces (the 1e-5 accuracy)
/// and at most `s` points per leaf.
pub fn paper_opts(s: usize) -> FmmOptions {
    FmmOptions { order: 6, max_pts_per_leaf: s, ..Default::default() }
}

/// Everything measured on one rank during a run.
#[derive(Clone, Debug)]
pub struct RankMetrics {
    /// Per-phase CPU seconds, counted flops and the messages and bytes
    /// sent, per evaluation (averaged over iterations).
    pub phases: PhaseStats,
    /// Virtual seconds of set-up: wall time in tree construction, lists,
    /// ownership and the ghost exchange, plus its modelled traffic.
    pub setup_seconds: f64,
    /// Number of points this rank owns.
    pub points: usize,
}

impl RankMetrics {
    /// Virtual seconds of the interaction calculation on this rank: CPU
    /// seconds of every phase but Comm, plus the modelled traffic.
    pub fn virtual_seconds(&self) -> f64 {
        self.phases.total_seconds() - self.phases.seconds[Phase::Comm as usize]
            + comm_seconds(self.phases.comm_bytes, self.phases.comm_messages)
    }
}

/// The paper's "work estimates from a previous time step" (§3.1), read
/// off the clock: each point of rank `r` weighs `virtual_seconds(r) /
/// |part.groups[r]|`, so a rank's points weigh the seconds whose max/min
/// is the Ratio. Indexed by global point, for `partition_weighted_points`.
pub fn measured_weights(part: &Partition, metrics: &[RankMetrics]) -> Vec<f64> {
    assert_eq!(part.groups.len(), metrics.len(), "one rank per group");
    let mut weights = vec![0.0; part.groups.iter().map(Vec::len).sum()];
    for (group, rank) in part.groups.iter().zip(metrics) {
        let each = rank.virtual_seconds() / group.len() as f64;
        group.iter().for_each(|&i| weights[i] = each);
    }
    weights
}

/// Run one distributed interaction calculation with rank `r` owning
/// `part.groups[r]` and collect per-rank metrics. The evaluation is
/// repeated `iterations` times and averaged (the paper averages "over
/// several iterations"); every evaluation records into `trace`.
pub fn run_distributed<K: Kernel>(
    kernel: K,
    all_points: &[Point3],
    part: &Partition,
    opts: FmmOptions,
    iterations: usize,
    trace: &Tracer,
) -> Vec<RankMetrics> {
    assert!(iterations >= 1);
    let chunks = Arc::new(part.gather(all_points));
    let cache = Arc::new(PrecomputeCache::<K>::new());
    let trace = trace.clone();
    kifmm::mpi::run(chunks.len(), move |comm| {
        let r = comm.rank();
        let local = &chunks[r];
        let dens = kifmm::geom::random_densities(local.len(), kernel.src_dim(), r as u64 + 1);
        let mut pfmm = ParallelFmm::with_cache(comm, kernel.clone(), local, opts, &cache);
        pfmm.set_trace(trace.clone());
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
        phases.comm_messages /= iterations as u64;
        phases.comm_bytes /= iterations as u64;
        RankMetrics {
            phases,
            setup_seconds: pfmm.setup_seconds
                + comm_seconds(after_setup.bytes_sent, after_setup.messages_sent),
            points: local.len(),
        }
    })
}

/// A titled sweep over rank counts, first row P = 1.
pub type Series = (&'static str, Vec<SweepRow>);

/// One rank count of an experiment: the Table-4.1/4.2 columns and the
/// Figure-4.2/4.3 series of the same run.
#[derive(Clone, Debug, Default)]
pub struct SweepRow {
    /// Rank count.
    pub p: usize,
    /// Global particle count.
    pub n: usize,
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
    /// Aggregate CPU µs per particle per phase (the paper's "aggregate CPU
    /// cycles per particle" in time units); `Comm` is the modelled time.
    pub us: [f64; Phase::COUNT],
    /// Counted flops per phase, summed over ranks.
    pub flops: [u64; Phase::COUNT],
    /// Per-rank Mflop/s over each rank's own virtual time: avg, max, min.
    pub mflops: [f64; 3],
    /// Messages all ranks sent in one evaluation.
    pub eval_msgs: u64,
    /// Bytes all ranks sent in one evaluation.
    pub eval_bytes: u64,
}

/// Aggregate per-phase CPU microseconds per particle, from the
/// rank-merged stats of a run over `n` particles.
pub fn phase_us_per_particle(merged: &PhaseStats, n: usize) -> [f64; Phase::COUNT] {
    merged.seconds.map(|s| s * 1e6 / n as f64)
}

fn min_max(v: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    (v.clone().fold(f64::INFINITY, f64::min), v.fold(0.0, f64::max))
}

/// Reduce per-rank metrics to one row.
pub fn summarize(metrics: &[RankMetrics]) -> SweepRow {
    let p = metrics.len();
    let avg = |f: &dyn Fn(&RankMetrics) -> f64| metrics.iter().map(f).sum::<f64>() / p as f64;
    let n = metrics.iter().map(|m| m.points).sum();
    let mut merged = PhaseStats::new();
    metrics.iter().for_each(|m| merged.merge(&m.phases));
    let total = avg(&RankMetrics::virtual_seconds);
    let (min_total, max_total) = min_max(metrics.iter().map(RankMetrics::virtual_seconds));
    let ratio = max_total / min_total.max(1e-12);
    let comm = avg(&|m| comm_seconds(m.phases.comm_bytes, m.phases.comm_messages));
    let total_flops = merged.total_flops() as f64;
    let rates = metrics
        .iter()
        .map(|m| m.phases.total_flops() as f64 / m.virtual_seconds().max(1e-12) / 1e6);
    let (min_rate, max_rate) = min_max(rates.clone());
    let mut us = phase_us_per_particle(&merged, n);
    us[Phase::Comm as usize] = comm * p as f64 * 1e6 / n as f64;
    SweepRow {
        p,
        n,
        total,
        ratio,
        comm,
        up: merged.seconds[Phase::Up as usize] / p as f64,
        down: merged.down_seconds() / p as f64,
        avg_gflops: total_flops / total.max(1e-12) / 1e9,
        peak_gflops: total_flops / max_total.max(1e-12) / 1e9 * ratio,
        tree: avg(&|m| m.setup_seconds),
        us,
        flops: merged.flops,
        mflops: [rates.sum::<f64>() / p as f64, max_rate, min_rate],
        eval_msgs: merged.comm_messages,
        eval_bytes: merged.comm_bytes,
    }
}

/// One experiment: for each rank count, the paper's count-based partition
/// of `points_for_p(P)` evaluated at [`paper_opts`]`(60)`, `KIFMM_ITERS`
/// (default 1) evaluations per row.
pub fn sweep<K: Kernel>(
    kernel: K,
    points_for_p: impl Fn(usize) -> Vec<Point3>,
    ranks: &[usize],
) -> Vec<SweepRow> {
    let iters = env_usize("KIFMM_ITERS", 1);
    let run = |&p: &usize| {
        let points = points_for_p(p);
        let part = partition_points(&points, p);
        let trace = Tracer::disabled();
        summarize(&run_distributed(kernel.clone(), &points, &part, paper_opts(60), iters, &trace))
    };
    ranks.iter().map(run).collect()
}

/// The table view of a sweep, in the columns of Tables 4.1–4.3.
pub fn print_table(title: &str, rows: &[SweepRow]) {
    println!(
        "\n{title}\n    P        N  Total(s)  Ratio  Comm(s)    Up(s)   Down(s)  Avg GF/s \
         Peak GF/s Gen/Comm(s)"
    );
    for r in rows {
        println!(
            "{:>5} {:>8} {:>9.3} {:>6.2} {:>8.4} {:>8.3} {:>9.3} {:>8.3} {:>8.3} {:>9.3}",
            r.p, r.n, r.total, r.ratio, r.comm, r.up, r.down, r.avg_gflops, r.peak_gflops, r.tree
        );
    }
}

/// The figure view of the same sweep (Figures 4.2/4.3): aggregate CPU
/// µs/particle per stage, work efficiency — aggregate virtual time per
/// particle at the first row over this row's, `T(1)/(P·T(P))` at fixed
/// N — and per-rank Mflop/s with the flop-rate efficiency.
pub fn print_figure(title: &str, rows: &[SweepRow]) {
    let per_particle = |r: &SweepRow| r.total * r.p as f64 / r.n as f64;
    print!("\n=== {title} ===\n{:>5}", "P");
    PHASE_NAMES.iter().for_each(|name| print!(" {name:>8}"));
    println!(" | workEff  MF/s avg  MF/s max  MF/s min flopEff");
    for row in rows {
        print!("{:>5}", row.p);
        row.us.iter().for_each(|us| print!(" {us:>8.2}"));
        println!(
            " | {:>7.2} {:>9.1} {:>9.1} {:>9.1} {:>7.2}",
            per_particle(&rows[0]) / per_particle(row),
            row.mflops[0],
            row.mflops[1],
            row.mflops[2],
            row.mflops[0] / rows[0].mflops[0]
        );
    }
}

/// Where the aggregate work grows: per compute phase, Σ-rank counted
/// flops over the first row's, next to the same ratio of CPU time per
/// particle. Flop growth is redundant work; time growth at equal flops is
/// a lower rate.
pub fn print_inflation(title: &str, rows: &[SweepRow]) {
    print!("\n--- {title}: flops× / time× against P = {} ---\n{:>5}", rows[0].p, "P");
    let compute = || PHASES.into_iter().filter(|&ph| ph != Phase::Comm);
    compute().for_each(|ph| print!(" {:>11}", PHASE_NAMES[ph as usize]));
    println!();
    for row in rows {
        print!("{:>5}", row.p);
        for i in compute().map(|ph| ph as usize) {
            // A phase that counts no flops at P = 1 has no flop ratio.
            let flops = match rows[0].flops[i] {
                0 => "-".to_string(),
                base => format!("{:.2}", row.flops[i] as f64 / base as f64),
            };
            print!(" {flops:>5}/{:<5.2}", row.us[i] / rows[0].us[i]);
        }
        println!();
    }
}

/// Print every failed claim and exit 1, or print `ok` and return: a
/// bin's exit status is its verdict.
pub fn exit_with(verdict: Result<(), String>, ok: &str) {
    match verdict {
        Ok(()) => println!("\n{ok}"),
        Err(failed) => {
            failed.lines().for_each(|why| eprintln!("FAIL: {why}"));
            std::process::exit(1);
        }
    }
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
    use kifmm::tree::partition_weighted_points;
    use kifmm::{Fmm, Laplace};

    #[test]
    fn comm_model_pricing() {
        assert!((comm_seconds(500_000_000, 0) - 1.0).abs() < 1e-12);
        assert!((comm_seconds(0, 200_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn harness_runs_and_summarizes() {
        let pts = kifmm::geom::sphere_grid(3000, 4);
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 40, ..Default::default() };
        let part = partition_points(&pts, 2);
        let metrics = run_distributed(Laplace, &pts, &part, opts, 1, &Tracer::disabled());
        assert_eq!(metrics.len(), 2);
        for (m, group) in metrics.iter().zip(&part.groups) {
            assert_eq!(m.points, group.len());
        }
        let row = summarize(&metrics);
        assert_eq!(row.p, 2);
        assert_eq!(row.n, 3000);
        assert!(row.total > 0.0);
        assert!(row.ratio >= 1.0);
        assert!(row.flops.iter().sum::<u64>() > 0);
        // Two ranks must have exchanged something.
        assert!(row.eval_bytes > 0);
        assert!(gates::exchange(&row).is_ok());
    }

    /// A rank that took `seconds` of DownV and owns `points`.
    fn rank(seconds: f64, points: usize) -> RankMetrics {
        let mut phases = PhaseStats::new();
        phases.seconds[Phase::DownV as usize] = seconds;
        RankMetrics { phases, setup_seconds: 0.0, points }
    }

    #[test]
    fn measured_weights_move_the_cut_toward_the_slow_rank() {
        let pts = kifmm::geom::uniform_cube(1000, 5);
        let halves = partition_points(&pts, 2).groups;
        // Rank 0 took three times rank 1's seconds; rank 2 owns no point
        // and took none (0 / 0 is NaN, if it were ever assigned).
        let part = Partition { groups: vec![halves[0].clone(), halves[1].clone(), vec![]] };
        let w = measured_weights(&part, &[rank(3.0, 500), rank(1.0, 500), rank(0.0, 0)]);
        assert_eq!(w.len(), 1000);
        assert!(w.iter().all(|&x| x.is_finite()), "a weight is not finite");
        assert!(halves[0].iter().all(|&i| w[i] == 3.0 / 500.0));
        assert!(halves[1].iter().all(|&i| w[i] == 1.0 / 500.0));
        // Re-cut into the same three groups: the slow rank keeps only a
        // prefix of its curve segment, the empty one gets points.
        let cut = partition_weighted_points(&pts, &w, 3).groups;
        assert!(cut[0].len() < halves[0].len(), "slow rank kept {} points", cut[0].len());
        assert!(cut[0].iter().all(|i| halves[0].contains(i)));
        assert!(!cut[2].is_empty());
    }

    /// The harness measures the engine, not a cousin of it: one rank of
    /// the sweep counts, phase by phase, exactly the flops `Session::eval`
    /// counts on the same cloud.
    #[test]
    fn sweep_at_one_rank_counts_the_flops_of_session_eval() {
        for points in [kifmm::geom::sphere_grid(2000, 8), kifmm::geom::corner_clusters(2000, 2003)]
        {
            let row = &sweep(Laplace, |_| points.clone(), &[1])[0];
            let fmm = Fmm::builder(Laplace).points(&points).options(paper_opts(60)).build();
            let dens = kifmm::geom::random_densities(points.len(), 1, 1);
            assert_eq!(row.flops, fmm.eval(&dens).stats.flops);
            assert_eq!((row.p, row.n, row.eval_msgs), (1, 2000, 0));
        }
    }

    #[test]
    fn rank_sweep_capped() {
        std::env::remove_var("KIFMM_MAXP");
        assert_eq!(rank_sweep(8), vec![1, 2, 4, 8]);
    }
}
