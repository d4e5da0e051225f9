//! CI gate for the tracing artifacts.
//!
//! ```text
//! validate_json <file>                      # parse check only
//! validate_json <file> --bench-summary [--max-eval-messages N]
//!                                           # kifmm-bench-v1 invariants;
//!                                           # optionally cap the summed
//!                                           # per-phase message count
//!                                           # (the comm-regression gate)
//! validate_json <file> --chrome [min_ranks]# chrome-trace invariants
//! validate_json <file> --service-throughput [--max-batch-ratio R]
//!                                           # kifmm-service-v1 invariants;
//!                                           # optionally require
//!                                           # batch.ratio <= R (the
//!                                           # multi-RHS amortization gate)
//! validate_json <file> --kernel-suite [--max-overhead R]
//!                                           # kifmm-kernel-suite-v1
//!                                           # invariants: a row per kernel
//!                                           # with plausible timings and
//!                                           # accuracy; optionally cap the
//!                                           # gradient/potential overhead
//!                                           # ratio (the fused-output gate)
//! validate_json <file> --tree-build [--max-update-ratio R]
//!                                           # kifmm-tree-build-v1
//!                                           # invariants: every rank count
//!                                           # built bitwise-identical
//!                                           # sample-sort/paper trees;
//!                                           # optionally require the
//!                                           # incremental plan update to
//!                                           # cost <= R of a full rebuild
//! ```
//!
//! Exits nonzero with a diagnostic on the first violated invariant, so
//! `scripts/verify.sh` can gate on artifact shape without serde or
//! python in the image.

use kifmm_testkit::json::Json;
use std::process::ExitCode;

const PHASE_KEYS: [&str; 7] = ["Up", "Comm", "DownU", "DownV", "DownW", "DownX", "Eval"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("validate_json: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or_else(usage)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    match args.get(1).map(String::as_str) {
        None => Ok(format!("{path}: valid JSON")),
        Some("--bench-summary") => {
            let max_eval_messages: Option<u64> = match args.get(2).map(String::as_str) {
                Some("--max-eval-messages") => {
                    Some(args.get(3).and_then(|v| v.parse().ok()).ok_or_else(usage)?)
                }
                Some(_) => return Err(usage()),
                None => None,
            };
            let eval_msgs =
                check_bench_summary(&doc, max_eval_messages).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!(
                "{path}: valid kifmm-bench-v1 summary ({eval_msgs} eval messages)"
            ))
        }
        Some("--service-throughput") => {
            let max_ratio: Option<f64> = match args.get(2).map(String::as_str) {
                Some("--max-batch-ratio") => {
                    Some(args.get(3).and_then(|v| v.parse().ok()).ok_or_else(usage)?)
                }
                Some(_) => return Err(usage()),
                None => None,
            };
            let ratio =
                check_service(&doc, max_ratio).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!(
                "{path}: valid kifmm-service-v1 summary (batch ratio {ratio:.3})"
            ))
        }
        Some("--tree-build") => {
            let max_ratio: Option<f64> = match args.get(2).map(String::as_str) {
                Some("--max-update-ratio") => {
                    Some(args.get(3).and_then(|v| v.parse().ok()).ok_or_else(usage)?)
                }
                Some(_) => return Err(usage()),
                None => None,
            };
            let (builds, ratio) =
                check_tree_build(&doc, max_ratio).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!(
                "{path}: valid kifmm-tree-build-v1 summary ({builds} rank counts, \
                 update ratio {ratio:.3})"
            ))
        }
        Some("--kernel-suite") => {
            let max_overhead: Option<f64> = match args.get(2).map(String::as_str) {
                Some("--max-overhead") => {
                    Some(args.get(3).and_then(|v| v.parse().ok()).ok_or_else(usage)?)
                }
                Some(_) => return Err(usage()),
                None => None,
            };
            let (rows, worst) =
                check_kernel_suite(&doc, max_overhead).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!(
                "{path}: valid kifmm-kernel-suite-v1 summary ({rows} kernels, worst \
                 overhead {worst:.3})"
            ))
        }
        Some("--chrome") => {
            let min_ranks: usize = match args.get(2) {
                Some(v) => v.parse().map_err(|_| usage())?,
                None => 1,
            };
            let ranks = check_chrome(&doc, min_ranks).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("{path}: valid chrome trace with {ranks} rank tracks"))
        }
        Some(other) => Err(format!("unknown mode '{other}'\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: validate_json <file> [--bench-summary [--max-eval-messages N] | \
     --chrome [min_ranks] | --service-throughput [--max-batch-ratio R] | \
     --tree-build [--max-update-ratio R] | \
     --kernel-suite [--max-overhead R]]"
        .to_string()
}

/// `BENCH_tree_build.json` invariants: schema tag, a nonempty `builds`
/// array where every rank count reports positive build times, a plausible
/// node count/depth, and `structure_equal == true` — the sample-sort and
/// paper Allreduce builds must be bitwise identical, the PR's central
/// equivalence gate. The `update` block must show a coherent
/// patch-vs-rebuild measurement (`ratio` consistent with its timings,
/// `moved_fraction` in (0, 1]); when `max_ratio` is given the incremental
/// update must cost at most that fraction of a full rebuild — the
/// time-stepping amortization gate. Returns (build rows, update ratio).
fn check_tree_build(doc: &Json, max_ratio: Option<f64>) -> Result<(usize, f64), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string field 'schema'")?;
    if schema != "kifmm-tree-build-v1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    let n = doc.get("n").and_then(Json::as_f64).ok_or("missing numeric field 'n'")?;
    if n < 1.0 {
        return Err(format!("implausible n = {n}"));
    }
    let builds = doc.get("builds").and_then(Json::as_arr).ok_or("missing 'builds' array")?;
    if builds.is_empty() {
        return Err("empty 'builds' array".into());
    }
    for (i, row) in builds.iter().enumerate() {
        let at = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("builds[{i}] missing numeric '{key}'"))
        };
        let ranks = at("ranks")?;
        let t_sample = at("sample_sort_seconds")?;
        let t_paper = at("paper_seconds")?;
        let nodes = at("nodes")?;
        let depth = at("depth")?;
        if ranks < 1.0 || t_sample <= 0.0 || t_paper <= 0.0 || nodes < 1.0 || depth < 0.0 {
            return Err(format!(
                "builds[{i}]: implausible row (ranks={ranks}, sample={t_sample}, \
                 paper={t_paper}, nodes={nodes}, depth={depth})"
            ));
        }
        let equal = row
            .get("structure_equal")
            .and_then(Json::as_bool)
            .ok_or(format!("builds[{i}] missing bool 'structure_equal'"))?;
        if !equal {
            return Err(format!(
                "builds[{i}]: sample-sort and paper builds disagree at P={ranks} \
                 (the bitwise equivalence gate failed)"
            ));
        }
    }
    let upd = doc.get("update").ok_or("missing 'update' object")?;
    let at = |key: &str| {
        upd.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("update missing numeric '{key}'"))
    };
    let build = at("build_seconds")?;
    let update = at("update_seconds")?;
    let ratio = at("ratio")?;
    let moved = at("moved_fraction")?;
    if build <= 0.0 || update <= 0.0 || ratio <= 0.0 {
        return Err(format!(
            "implausible update block (build={build}, update={update}, ratio={ratio})"
        ));
    }
    if (ratio - update / build).abs() > 0.01 * ratio.max(1e-9) {
        return Err(format!("update.ratio {ratio} inconsistent with {update}/{build}"));
    }
    if !(moved > 0.0 && moved <= 1.0) {
        return Err(format!("update.moved_fraction {moved} outside (0, 1]"));
    }
    if let Some(bound) = max_ratio {
        if ratio > bound {
            return Err(format!(
                "incremental-update regression: patching the plan took {ratio:.3}× a full \
                 rebuild (bound {bound}) — time-stepping no longer amortizes setup"
            ));
        }
    }
    Ok((builds.len(), ratio))
}

/// `BENCH_kernel_suite.json` invariants: schema tag, a `kernels` array
/// covering the full five-kernel family (the scalar, screened, and the
/// three matrix/RBF additions), each row with positive dims and timings,
/// an `overhead_ratio` consistent with its own timings, and accuracy
/// columns inside the order-6 envelope (potentials ≤ 1e-3, gradients
/// ≤ 1e-2 — gradients differentiate the representation, losing roughly
/// one order). When `max_overhead` is given, every kernel's fused
/// gradient eval must cost at most that multiple of its potential-only
/// eval — the "gradients ride the same equivalents" gate. Returns
/// (rows, worst overhead ratio).
fn check_kernel_suite(doc: &Json, max_overhead: Option<f64>) -> Result<(usize, f64), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string field 'schema'")?;
    if schema != "kifmm-kernel-suite-v1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    for key in ["n", "order", "sample_targets"] {
        let v = doc.get(key).and_then(Json::as_f64).ok_or(format!("missing numeric '{key}'"))?;
        if v < 1.0 {
            return Err(format!("implausible {key} = {v}"));
        }
    }
    let kernels = doc.get("kernels").and_then(Json::as_arr).ok_or("missing 'kernels' array")?;
    if kernels.len() < 5 {
        return Err(format!("{} kernel rows (the suite sweeps all 5)", kernels.len()));
    }
    let mut worst = 0.0f64;
    for (i, row) in kernels.iter().enumerate() {
        let name = row
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or(format!("kernels[{i}] missing string 'kernel'"))?;
        let at = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("kernels[{i}] ({name}) missing numeric '{key}'"))
        };
        let (sd, td) = (at("src_dim")?, at("trg_dim")?);
        let pot_s = at("potential_seconds")?;
        let grad_s = at("gradient_seconds")?;
        let ratio = at("overhead_ratio")?;
        let pot_err = at("pot_rel_err")?;
        let grad_err = at("grad_rel_err")?;
        row.get("homogeneous")
            .and_then(Json::as_bool)
            .ok_or(format!("kernels[{i}] ({name}) missing bool 'homogeneous'"))?;
        if sd < 1.0 || td < 1.0 || pot_s <= 0.0 || grad_s <= 0.0 {
            return Err(format!(
                "kernels[{i}] ({name}): implausible row (dims {sd}x{td}, pot {pot_s}s, \
                 grad {grad_s}s)"
            ));
        }
        if (ratio - grad_s / pot_s).abs() > 0.01 * ratio.max(1e-9) {
            return Err(format!(
                "kernels[{i}] ({name}): overhead_ratio {ratio} inconsistent with \
                 {grad_s}/{pot_s}"
            ));
        }
        if !(pot_err >= 0.0 && pot_err < 1e-3) {
            return Err(format!(
                "kernels[{i}] ({name}): potential error {pot_err} outside the order-6 \
                 envelope (< 1e-3)"
            ));
        }
        if !(grad_err >= 0.0 && grad_err < 1e-2) {
            return Err(format!(
                "kernels[{i}] ({name}): gradient error {grad_err} outside the order-6 \
                 envelope (< 1e-2)"
            ));
        }
        worst = worst.max(ratio);
    }
    if let Some(bound) = max_overhead {
        if worst > bound {
            return Err(format!(
                "gradient-overhead regression: worst fused eval took {worst:.3}× the \
                 potential-only eval (bound {bound}) — gradients must ride the existing \
                 equivalents, not recompute the pipeline"
            ));
        }
    }
    Ok((kernels.len(), worst))
}

/// `BENCH_service_throughput.json` invariants: schema tag, a plan-cache
/// block that proves a warm hit happened (`hits >= 1`), a batch block
/// whose `ratio` is consistent with its timings, and a nonempty
/// throughput array with positive request rates for every batch width.
/// Returns `batch.ratio`; when `max_ratio` is given, the ratio must not
/// exceed it — the multi-RHS sweep must actually amortize the passes.
fn check_service(doc: &Json, max_ratio: Option<f64>) -> Result<f64, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string field 'schema'")?;
    if schema != "kifmm-service-v1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    doc.get("bench").and_then(Json::as_str).ok_or("missing string field 'bench'")?;
    for key in ["n", "order", "clients"] {
        doc.get(key).and_then(Json::as_f64).ok_or(format!("missing numeric field '{key}'"))?;
    }
    let kernels = doc.get("kernels").and_then(Json::as_arr).ok_or("missing 'kernels' array")?;
    if kernels.len() < 2 {
        return Err(format!("{} kernels (the service bench mixes >= 2)", kernels.len()));
    }
    let pc = doc.get("plan_cache").ok_or("missing 'plan_cache' object")?;
    let hits =
        pc.get("hits").and_then(Json::as_f64).ok_or("missing 'plan_cache.hits'")?;
    pc.get("misses").and_then(Json::as_f64).ok_or("missing 'plan_cache.misses'")?;
    if hits < 1.0 {
        return Err("plan_cache.hits = 0 (the warm-hit path was never exercised)".into());
    }
    let batch = doc.get("batch").ok_or("missing 'batch' object")?;
    let k = batch.get("k").and_then(Json::as_f64).ok_or("missing 'batch.k'")?;
    let seq = batch
        .get("sequential_seconds")
        .and_then(Json::as_f64)
        .ok_or("missing 'batch.sequential_seconds'")?;
    let bat = batch
        .get("batched_seconds")
        .and_then(Json::as_f64)
        .ok_or("missing 'batch.batched_seconds'")?;
    let ratio = batch.get("ratio").and_then(Json::as_f64).ok_or("missing 'batch.ratio'")?;
    if k < 2.0 || seq <= 0.0 || bat <= 0.0 || ratio <= 0.0 {
        return Err(format!("implausible batch block (k={k}, seq={seq}, batched={bat})"));
    }
    if (ratio - bat / seq).abs() > 0.01 * ratio.max(1e-9) {
        return Err(format!("batch.ratio {ratio} inconsistent with {bat}/{seq}"));
    }
    if let Some(bound) = max_ratio {
        if ratio > bound {
            return Err(format!(
                "batch amortization regression: eval_many(k={k}) took {ratio:.3}× the \
                 sequential evals (bound {bound})"
            ));
        }
    }
    let tp = doc.get("throughput").and_then(Json::as_arr).ok_or("missing 'throughput' array")?;
    if tp.is_empty() {
        return Err("empty 'throughput' array".into());
    }
    for (i, e) in tp.iter().enumerate() {
        for key in ["k", "requests", "rhs", "seconds", "requests_per_second", "rhs_per_second"] {
            let v = e
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("throughput[{i}] missing '{key}'"))?;
            if v <= 0.0 {
                return Err(format!("throughput[{i}].{key} = {v} (expected > 0)"));
            }
        }
    }
    Ok(ratio)
}

/// `BENCH_*.json` invariants: schema tag, all seven phase keys with
/// non-negative seconds and per-phase message/byte counters, and — when
/// ranks > 1 — nonzero comm bytes. Returns the summed per-phase message
/// count (the messages sent *during evaluation*, as opposed to
/// `comm.messages_sent`, which may include setup collectives); when
/// `max_eval_messages` is given, that sum must not exceed it — the
/// coalesced exchange sends O(peers) messages, so the caller passes a
/// ranks-based bound, never a boxes-based one.
fn check_bench_summary(doc: &Json, max_eval_messages: Option<u64>) -> Result<u64, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string field 'schema'")?;
    if schema != "kifmm-bench-v1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    for key in ["bench"] {
        doc.get(key).and_then(Json::as_str).ok_or(format!("missing string field '{key}'"))?;
    }
    for key in ["n", "order", "ranks", "tree_depth", "total_seconds", "total_flops", "gflops"] {
        doc.get(key).and_then(Json::as_f64).ok_or(format!("missing numeric field '{key}'"))?;
    }
    let phases = doc.get("phases").ok_or("missing 'phases' object")?;
    let mut eval_msgs = 0u64;
    for key in PHASE_KEYS {
        let p = phases.get(key).ok_or(format!("missing phase '{key}'"))?;
        let secs = p
            .get("seconds")
            .and_then(Json::as_f64)
            .ok_or(format!("phase '{key}' missing 'seconds'"))?;
        if !(secs >= 0.0) {
            return Err(format!("phase '{key}' has negative seconds {secs}"));
        }
        p.get("flops").and_then(Json::as_f64).ok_or(format!("phase '{key}' missing 'flops'"))?;
        p.get("gflops")
            .and_then(Json::as_f64)
            .ok_or(format!("phase '{key}' missing 'gflops'"))?;
        let msgs = p
            .get("messages")
            .and_then(Json::as_f64)
            .ok_or(format!("phase '{key}' missing 'messages'"))?;
        p.get("bytes").and_then(Json::as_f64).ok_or(format!("phase '{key}' missing 'bytes'"))?;
        if !(msgs >= 0.0) {
            return Err(format!("phase '{key}' has negative messages {msgs}"));
        }
        eval_msgs += msgs as u64;
    }
    if let Some(bound) = max_eval_messages {
        if eval_msgs > bound {
            return Err(format!(
                "comm regression: {eval_msgs} eval messages exceed the coalesced bound {bound} \
                 (per-peer packing should send O(peers), not O(boxes))"
            ));
        }
    }
    let ranks = doc.get("ranks").and_then(Json::as_f64).unwrap_or(0.0);
    let comm = doc.get("comm").ok_or("missing 'comm' object")?;
    let bytes = comm
        .get("bytes_sent")
        .and_then(Json::as_f64)
        .ok_or("missing 'comm.bytes_sent'")?;
    comm.get("messages_sent").and_then(Json::as_f64).ok_or("missing 'comm.messages_sent'")?;
    if ranks > 1.0 && bytes <= 0.0 {
        return Err(format!("ranks={ranks} but comm.bytes_sent={bytes} (expected > 0)"));
    }
    Ok(eval_msgs)
}

/// Chrome-trace invariants: well-formed events, at least `min_ranks`
/// distinct rank tracks carrying complete ("X") spans with non-negative
/// durations, an "Up" phase span somewhere, and — when more than one
/// rank is expected — async comm bars ("b"/"e") demonstrating overlap.
fn check_chrome(doc: &Json, min_ranks: usize) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing 'traceEvents' array")?;
    let mut rank_tids: Vec<f64> = Vec::new();
    let mut saw_up = false;
    let mut async_begins = 0usize;
    let mut async_ends = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing 'ph'"))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing 'name'"))?;
        match ph {
            "X" => {
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: X without 'tid'"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: X without 'dur'"))?;
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: X without 'ts'"))?;
                if dur < 0.0 || ts < 0.0 {
                    return Err(format!("event {i} '{name}': negative ts/dur ({ts}/{dur})"));
                }
                if !rank_tids.contains(&tid) {
                    rank_tids.push(tid);
                }
                if name == "Up" {
                    saw_up = true;
                }
            }
            "b" => async_begins += 1,
            "e" => async_ends += 1,
            "M" | "I" => {}
            other => return Err(format!("event {i} '{name}': unknown ph '{other}'")),
        }
    }
    if rank_tids.len() < min_ranks {
        return Err(format!(
            "only {} rank tracks with spans (expected >= {min_ranks})",
            rank_tids.len()
        ));
    }
    if !saw_up {
        return Err("no 'Up' phase span in any rank track".to_string());
    }
    if min_ranks > 1 {
        if async_begins == 0 {
            return Err("no async comm begin events ('ph':'b') — overlap not captured".into());
        }
        if async_begins != async_ends {
            return Err(format!(
                "unbalanced async events: {async_begins} begins vs {async_ends} ends"
            ));
        }
    }
    Ok(rank_tids.len())
}
