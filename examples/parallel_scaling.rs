//! Mini fixed-size scalability run: the distributed FMM on virtual MPI
//! ranks, printing a Table-4.1-style summary and writing
//! `TRACE_parallel_scaling_P4.json` — a chrome-trace timeline (one track
//! per virtual rank, async arrows for the overlapped exchanges; load it at
//! <https://ui.perfetto.dev>) — into `KIFMM_BENCH_DIR` (default
//! `target/bench-artifacts`).
//!
//! Ranks are threads on this machine, so per-phase *thread CPU time* is
//! reported (valid under oversubscription) together with communication
//! volume; see `kifmm-bench` for the full table reproductions with the
//! calibrated communication model.
//!
//! The example is its own gate ([`gate`]): it exits non-zero when, at any
//! P, a phase of the merged `PhaseStats` carries no valid time, the
//! evaluation sends more than the coalesced exchange's message bound, or
//! P > 1 ranks exchange no bytes.
//!
//! ```text
//! cargo run --release --example parallel_scaling
//! KIFMM_N=4000 KIFMM_BENCH_DIR=target/bench cargo run --release --example parallel_scaling
//! ```

use kifmm::parallel::ParallelFmm;
use kifmm::tree::partition_points;
use kifmm::{FmmOptions, Laplace, Phase, PhaseStats, Tracer, PHASE_NAMES};
use kifmm_core::PrecomputeCache;
use std::sync::Arc;

/// The example's verdict for one rank count over the rank-merged phase
/// stats and the bytes all ranks sent. Each of the two per-eval exchanges
/// (densities, equivalents) sends at most one gather + one scatter message
/// per peer per rank, so an evaluation's total is at most 4·P·(P−1) — a
/// ranks-based bound; a per-box exchange sends O(boxes) and blows through
/// it immediately.
fn gate(ranks: usize, merged: &PhaseStats, comm_bytes: u64) -> Result<(), String> {
    for (name, secs) in PHASE_NAMES.iter().zip(&merged.seconds) {
        if secs.is_nan() || *secs < 0.0 {
            return Err(format!("P = {ranks}: phase {name} reports {secs} seconds"));
        }
    }
    let msgs: u64 = merged.comm_messages.iter().sum();
    let bound = (4 * ranks * (ranks - 1)) as u64;
    if msgs > bound {
        return Err(format!(
            "comm regression at P = {ranks}: {msgs} eval messages exceed the coalesced bound \
             {bound} (per-peer packing should send O(peers), not O(boxes))"
        ));
    }
    if ranks > 1 && comm_bytes == 0 {
        return Err(format!("P = {ranks} ranks exchanged no bytes"));
    }
    Ok(())
}

fn main() {
    let n: usize =
        std::env::var("KIFMM_N").ok().and_then(|v| v.parse().ok()).unwrap_or(40_000);
    let bench_dir =
        std::env::var("KIFMM_BENCH_DIR").unwrap_or_else(|_| "target/bench-artifacts".into());
    println!("fixed-size scalability, Laplace, N = {n} (512-sphere input)\n");
    let all = kifmm::geom::sphere_grid(n, 8);
    let opts = FmmOptions::default();

    println!("  P   max-compute(s)  imbalance  comm(MB)  msgs   total-Mflop");
    for ranks in [1usize, 2, 4, 8] {
        let cache = Arc::new(PrecomputeCache::new());
        let chunks = Arc::new(partition_points(&all, ranks).gather(&all));
        let tracer = Tracer::enabled();
        let out = kifmm::mpi::run(ranks, {
            let chunks = chunks.clone();
            let cache = cache.clone();
            let tracer = tracer.clone();
            move |comm| {
                let local = &chunks[comm.rank()];
                let dens = kifmm::geom::random_densities(local.len(), 1, comm.rank() as u64);
                let mut pfmm = ParallelFmm::with_cache(comm, Laplace, local, opts, &cache);
                pfmm.set_trace(tracer.clone());
                let report = pfmm.eval(comm, &dens);
                (report.stats, comm.stats())
            }
        });
        let compute: Vec<f64> = out
            .iter()
            .map(|(s, _)| s.total_seconds() - s.seconds[Phase::Comm as usize])
            .collect();
        let max_c = compute.iter().cloned().fold(0.0f64, f64::max);
        let min_c = compute.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-12);
        let bytes: u64 = out.iter().map(|(_, c)| c.bytes_sent).sum();
        let msgs: u64 = out.iter().map(|(_, c)| c.messages_sent).sum();
        let flops: u64 = out.iter().map(|(s, _)| s.total_flops()).sum();
        println!(
            "  {ranks:<3} {max_c:>13.3}  {:>9.2}  {:>8.2}  {msgs:>5}  {:>11}",
            max_c / min_c,
            bytes as f64 / 1e6,
            flops / 1_000_000
        );

        let mut merged = PhaseStats::new();
        for (s, _) in &out {
            merged.merge(s);
        }
        if let Err(why) = gate(ranks, &merged, bytes) {
            eprintln!("FAIL: {why}");
            std::process::exit(1);
        }
        if ranks == 4 {
            let path = std::path::Path::new(&bench_dir).join("TRACE_parallel_scaling_P4.json");
            match std::fs::create_dir_all(&bench_dir)
                .and_then(|()| std::fs::write(&path, tracer.chrome_trace_json()))
            {
                Ok(()) => println!("      wrote {} (open in ui.perfetto.dev)", path.display()),
                Err(e) => eprintln!("      TRACE write failed: {e}"),
            }
        }
    }
    println!("\nmax-compute should drop ~1/P while comm volume grows — the");
    println!("fixed-size tradeoff of the paper's Table 4.1. OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_the_message_bound_the_phases_and_the_comm_bytes() {
        let stats = |msgs: u64| {
            let mut s = PhaseStats::new();
            s.comm_messages[Phase::Comm as usize] = msgs;
            s
        };
        assert!(gate(1, &stats(0), 0).is_ok(), "one rank sends nothing");
        assert!(gate(1, &stats(1), 0).is_err());
        assert!(gate(4, &stats(48), 1).is_ok());
        assert!(gate(4, &stats(49), 1).is_err());
        assert!(gate(4, &stats(48), 0).is_err(), "P > 1 must exchange bytes");
        let mut bad = stats(0);
        bad.seconds[Phase::DownV as usize] = f64::NAN;
        assert!(gate(1, &bad, 0).is_err());
        bad.seconds[Phase::DownV as usize] = -1e-9;
        assert!(gate(1, &bad, 0).is_err());
    }
}
