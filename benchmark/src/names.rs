//! The names the benchmark prints — the single list `BENCHMARK.json` is
//! checked against (see the test at the bottom).

/// `(name, why)` of each workload, in round-robin order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "laplace_uniform",
        "Uniform Laplace, N=40k p=6 s=60, serial eval: M2L is ~91% of the time, P2P ~1% - M2L/FFT work shows here, P2P work must not",
    ),
    (
        "laplace_spheres_batch8",
        "512 spheres, N=60k s=1500, eval_many k=8: U-list p2p_many is ~92%, M2L ~6% - the mirror image; kernel-layer work shows here",
    ),
    (
        "stokes_corner_dist2",
        "Stokes on corner clusters, N=24k, P=2 rank threads: depth-12 adaptive tree, W/X passes, 3x3 kernel, LET set-up, kifmm-mpi, pinv-bound set-up",
    ),
    (
        "stokes_pair_bie",
        "Stokes single-layer BIE on two spheres solved by GMRES to 1e-4: ~20 matvecs against one plan, plan reuse and scratch pooling across matvecs",
    ),
];

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: [MetricDef; 4] = [
    ("setup_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("rel_err", "1", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

const S: &str = "s";
const US: &str = "us";
const GF: &str = "Gflop/s";
const GB: &str = "GB/s";
const MP: &str = "Mpair/s";
const FRAC: &str = "1";
const COUNT: &str = "count";
const FLOP: &str = "flop";
const BYTE: &str = "B";
const LO: &str = "lower";
const HI: &str = "higher";

pub const PER_LAYER: [MetricDef; 103] = [
    // host: calibration loops owned by the benchmark — roofs and a noise flag.
    ("host.fma_gflops", GF, HI),
    ("host.triad_gbs", GB, HI),
    ("host.l2_gbs", GB, HI),
    ("host.ref_spread", FRAC, LO),
    // linalg
    ("linalg.gemm_152_gflops", GF, HI),
    ("linalg.gemm_456_gflops", GF, HI),
    ("linalg.gemm_56_gflops", GF, HI),
    ("linalg.gemm_152_roof_frac", FRAC, HI),
    ("linalg.gemv_152_us", US, LO),
    ("linalg.pinv_152_s", S, LO),
    ("linalg.pinv_456_s", S, LO),
    // fft
    ("fft.fft3_fwd_12_us", US, LO),
    ("fft.fft3_inv_corner_12_us", US, LO),
    ("fft.fft3_fwd_8_us", US, LO),
    ("fft.hadamard_gflops", GF, HI),
    ("fft.hadamard_gbs", GB, HI),
    ("fft.hadamard_intensity", "flop/B", HI),
    ("fft.hadamard_roof_frac", FRAC, HI),
    // kernels: 512x512 blocks, million pair interactions per second.
    ("kernels.laplace.p2p_mpairs", MP, HI),
    ("kernels.laplace.p2p_many8_mpairs", MP, HI),
    ("kernels.laplace.p2p_grad_mpairs", MP, HI),
    ("kernels.modified_laplace.p2p_mpairs", MP, HI),
    ("kernels.modified_laplace.p2p_many8_mpairs", MP, HI),
    ("kernels.modified_laplace.p2p_grad_mpairs", MP, HI),
    ("kernels.stokes.p2p_mpairs", MP, HI),
    ("kernels.stokes.p2p_many8_mpairs", MP, HI),
    ("kernels.stokes.p2p_grad_mpairs", MP, HI),
    ("kernels.kelvin.p2p_mpairs", MP, HI),
    ("kernels.kelvin.p2p_many8_mpairs", MP, HI),
    ("kernels.kelvin.p2p_grad_mpairs", MP, HI),
    ("kernels.gaussian.p2p_mpairs", MP, HI),
    ("kernels.gaussian.p2p_many8_mpairs", MP, HI),
    ("kernels.gaussian.p2p_grad_mpairs", MP, HI),
    ("kernels.custom.p2p_mpairs", MP, HI),
    ("kernels.laplace.p2p_roof_frac", FRAC, HI),
    ("kernels.stokes.p2p_roof_frac", FRAC, HI),
    // tree: micro rows on sphere_grid(400k), then the workload's exact counts.
    ("tree.octree_build_s", S, LO),
    ("tree.lists_build_s", S, LO),
    ("tree.update_s", S, LO),
    ("tree.partition_s", S, LO),
    ("tree.boxes", COUNT, LO),
    ("tree.leaves", COUNT, LO),
    ("tree.depth", COUNT, LO),
    ("tree.list_entries", COUNT, LO),
    ("tree.v_pairs", COUNT, LO),
    // core: the plan
    ("core.plan_cold_s", S, LO),
    ("core.plan_warm_s", S, LO),
    ("core.plan_update_s", S, LO),
    ("core.plan_cache_hit_us", US, LO),
    ("core.precompute_s", S, LO),
    ("core.plan_mib", "MiB", LO),
    ("core.direct_mpairs", MP, HI),
    // core: the engine passes, sequenced as Plan::execute does
    ("core.up_s", S, LO),
    ("core.m2l_s", S, LO),
    ("core.x_s", S, LO),
    ("core.l2l_s", S, LO),
    ("core.u_s", S, LO),
    ("core.w_s", S, LO),
    ("core.l2t_s", S, LO),
    ("core.exec_self_s", S, LO),
    ("core.up_flops", FLOP, LO),
    ("core.m2l_flops", FLOP, LO),
    ("core.x_flops", FLOP, LO),
    ("core.l2l_flops", FLOP, LO),
    ("core.u_flops", FLOP, LO),
    ("core.w_flops", FLOP, LO),
    ("core.l2t_flops", FLOP, LO),
    ("core.m2l_share", FRAC, LO),
    ("core.u_share", FRAC, LO),
    ("core.m2l_gflops", GF, HI),
    ("core.u_gflops", GF, HI),
    ("core.m2l_bytes_computed", BYTE, LO),
    ("core.m2l_intensity", "flop/B", HI),
    ("core.m2l_roof_frac", FRAC, HI),
    ("core.u_roof_frac", FRAC, HI),
    // parallel (0 on the single-process workloads)
    ("parallel.setup_tree_s", S, LO),
    ("parallel.setup_ownership_s", S, LO),
    ("parallel.setup_routes_s", S, LO),
    ("parallel.rank_cpu_max_s", S, LO),
    ("parallel.rank_cpu_min_s", S, LO),
    ("parallel.work_ratio", FRAC, LO),
    ("parallel.wait_s", S, LO),
    ("parallel.work_ratio_p8", FRAC, LO),
    ("parallel.work_inflation_p8", FRAC, LO),
    // mpi: exact counts of the workload (0 when it sends nothing), then micro rows
    ("mpi.eval_msgs", COUNT, LO),
    ("mpi.eval_bytes", BYTE, LO),
    ("mpi.setup_msgs", COUNT, LO),
    ("mpi.setup_bytes", BYTE, LO),
    ("mpi.eval_msgs_p8", COUNT, LO),
    ("mpi.eval_bytes_p8", BYTE, LO),
    ("mpi.pingpong_us", US, LO),
    ("mpi.stream_gbs", GB, HI),
    ("mpi.allreduce_us", US, LO),
    ("mpi.sample_sort_mkeys", "Mkey/s", HI),
    // solver (0 on the workloads that solve nothing)
    ("solver.matvecs", COUNT, LO),
    ("solver.matvec_s", S, LO),
    ("solver.gmres_self_s", S, LO),
    ("solver.residual", FRAC, LO),
    // runtime
    ("runtime.pool_speedup", FRAC, HI),
    ("runtime.par_dispatch_us", US, LO),
    // trace
    ("trace.disabled_span_ns", "ns", LO),
    ("trace.enabled_overhead_frac", FRAC, LO),
    ("bench.span_overhead_frac", FRAC, LO),
];

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_testkit::json::Json;

    fn defs(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key}: no `{f}`"))
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn owned(table: &[MetricDef]) -> Vec<(String, String, String)> {
        table.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the binary
    /// prints, with the same units and directions, and stays inside the
    /// driver's limits.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
            "exactly the contract's keys"
        );

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).expect("name").to_string(),
                    w.get("why").and_then(Json::as_str).expect("why").to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(workloads, ours);
        assert!(ours.iter().all(|(_, why)| why.chars().count() <= 200 && !why.contains('\n')));

        // End-to-end entries carry a bound as well; setup_s has the largest.
        assert_eq!(defs(&doc, "end_to_end"), owned(&END_TO_END));
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name").to_string(),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").expect("setup_s").1;
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25 && *b <= setup), "{bounds:?}");

        assert_eq!(defs(&doc, "per_layer"), owned(&PER_LAYER));
        assert!(PER_LAYER.len() <= 128);

        // Names are unique across everything and fit the driver's grammar.
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        for (_, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(*better == "lower" || *better == "higher");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");

        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
        assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::as_arr)
            .expect("paths")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
