//! `kifmm-benchmark`: the repo benchmark.
//!
//! ```text
//! kifmm-benchmark --workload W --seed S --seconds T --trace 0|1 [--smoke]
//!     one workload, one process: the contract of BENCHMARK.json. The last
//!     line of standard output is the JSON result.
//! kifmm-benchmark [--seed S] [--seconds T] [--trace] [--smoke]
//!     the full set: every workload, each in a fresh child process, samples
//!     taken in three round-robin rounds; writes benchmark/results/latest.json
//!     (and latest.trace.json with --trace).
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds it first. Everything is
//! measured from outside, through the public API of the `kifmm` facade.

mod host;
mod json;
mod layers;
mod names;
mod record;
mod stats;
mod traced;
mod workloads;

use host::{Calibration, Header};
use json::J;
use kifmm_testkit::json::Json;
use names::{workload_index, END_TO_END, PER_LAYER, WORKLOADS};
use record::{Recorder, Span};
use stats::{fmax, fmin, summarize, Summary};
use std::process::ExitCode;
use std::time::Instant;
use traced::Metrics;
use workloads::{Outcome, RunCfg, Tally};

const RESULTS_DIR: &str = "benchmark/results";
/// `run_seconds` of BENCHMARK.json, and the rounds of a full set.
const DEFAULT_SECONDS: f64 = 12.0;
const ROUNDS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Set by the full-set driver on its children.
    rounds: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: None, trace: false, smoke: false, rounds: 1 };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(s);
            }
            "--rounds" => {
                args.rounds = value("a number")?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if args.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if workload_index(w).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w}; known: {}", known.join(", ")));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kifmm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_set(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ------------------------------------------------------------ one workload

/// The untraced run: what the end-to-end metrics are taken from.
fn measure(workload: &str, cfg: &RunCfg, tally: &mut Tally) -> Outcome {
    match workload {
        "laplace_uniform" => {
            workloads::run_serial(&workloads::laplace_uniform_input(cfg), cfg, tally)
        }
        "laplace_spheres_batch8" => {
            workloads::run_serial(&workloads::laplace_spheres_input(cfg), cfg, tally)
        }
        "stokes_corner_dist2" => {
            workloads::run_dist(&workloads::stokes_corner_input(cfg, 2), cfg, tally)
        }
        "stokes_pair_bie" => workloads::run_bie(&mut workloads::stokes_pair_input(cfg), cfg, tally),
        other => unreachable!("parse_args admits only the names of WORKLOADS, not {other}"),
    }
}

/// The traced run: workload-independent micro rows, then the workload with
/// the benchmark driving its layers. Returns every span recorded.
fn trace(
    workload: &str,
    cfg: &RunCfg,
    cal: &Calibration,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Vec<Span> {
    if !cfg.smoke {
        layers::micro_suite(cal, m);
    }
    let epoch = Instant::now();
    let mut rec = Recorder::new(true, epoch, 0);
    let mut rank_spans = Vec::new();
    match workload {
        "laplace_uniform" => {
            traced::fmm_layers(
                &workloads::laplace_uniform_input(cfg),
                cfg,
                cal,
                m,
                &mut rec,
                tally,
            );
        }
        "laplace_spheres_batch8" => {
            traced::fmm_layers(
                &workloads::laplace_spheres_input(cfg),
                cfg,
                cal,
                m,
                &mut rec,
                tally,
            );
        }
        "stokes_corner_dist2" => {
            // The pass breakdown of the distributed workload is the serial
            // run of the same global point set: the single-threaded baseline.
            let dist = workloads::stokes_corner_input(cfg, 2);
            if let Some(serial) = traced::fmm_layers(&dist.global, cfg, cal, m, &mut rec, tally) {
                let dist8 = workloads::stokes_corner_input(cfg, 8);
                rank_spans =
                    traced::distributed_layers(&dist, &dist8, &serial, cfg, m, tally, epoch);
            }
        }
        "stokes_pair_bie" => {
            let mut bie = workloads::stokes_pair_input(cfg);
            let fmm_input = bie.weighted_input();
            if let Some(serial) = traced::fmm_layers(&fmm_input, cfg, cal, m, &mut rec, tally) {
                traced::solver_layers(&mut bie, &serial.plan, m, &mut rec, tally);
            }
        }
        other => unreachable!("parse_args admits only the names of WORKLOADS, not {other}"),
    }
    let mut lists = vec![rec.into_spans()];
    lists.extend(rank_spans);
    record::merge(lists)
}

fn fmt_summary(s: &Summary) -> String {
    format!("(q1 {:.4} q3 {:.4} min {:.4} n={})", s.q1, s.q3, s.min, s.n)
}

fn metric_json(value: f64, unit: &str) -> J {
    J::obj([("value", J::Num(value)), ("unit", J::str(unit))])
}

fn write_result(name: &str, text: &str) {
    let path = format!("{RESULTS_DIR}/{name}");
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, text))
    {
        // The result line on stdout is what counts; a read-only checkout
        // only loses the side files.
        eprintln!("kifmm-benchmark: could not write {path}: {e}");
    }
}

/// One workload in this process. Returns whether everything passed.
fn run_one(name: &str, args: &Args) -> bool {
    let workload = workload_index(name).expect("validated by parse_args");
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        smoke: args.smoke,
        rounds: args.rounds,
    };
    let header = Header::collect(name, cfg.seed, cfg.seconds, cfg.smoke);
    header.print();
    println!("# trace={} rounds={}", u8::from(args.trace), cfg.rounds);

    let mut tally = Tally::default();
    let mut refs = vec![host::reference_loop()];
    let mut metrics: Vec<(String, J)> = Vec::new();
    let mut side = vec![("header".to_string(), header.to_json())];
    let mut valid = true;

    if args.trace {
        let cal = if cfg.smoke { Calibration::skipped() } else { host::calibrate() };
        if !cfg.smoke {
            println!(
                "# roofs: fma {:.2} Gflop/s, triad {:.2} GB/s over 3 arrays of {} MiB (LLC {} MiB, 4x rule {}), L2 {:.2} GB/s",
                cal.fma_gflops,
                cal.triad_gbs,
                cal.triad_array_bytes >> 20,
                cal.llc_bytes >> 20,
                if cal.roofs_valid { "met" } else { "NOT met: every *_roof_frac omitted (0)" },
                cal.l2_gbs
            );
        }
        let mut m = Metrics::default();
        let spans = trace(name, &cfg, &cal, &mut m, &mut tally);
        refs.push(host::reference_loop());
        m.set("host.ref_spread", spread(&refs));
        for (metric, unit, _) in PER_LAYER {
            let v = m.get(metric);
            println!("{metric:<42} {v:>16.6} {unit}");
            valid &= v.is_finite();
            metrics.push((metric.to_string(), metric_json(v, unit)));
        }
        write_result(
            &format!("{name}.trace.json"),
            &format!("[\n{}\n]\n", record::chrome_events(&spans, workload as u32)),
        );
        println!("# {} spans -> {RESULTS_DIR}/{name}.trace.json", spans.len());
    } else {
        let out = measure(name, &cfg, &mut tally);
        refs.push(host::reference_loop());
        if out.setup.is_empty() || out.op.is_empty() {
            eprintln!("kifmm-benchmark: {name}: no valid sample; nothing to report");
            return false;
        }
        let (setup, op) = (summarize(&out.setup), summarize(&out.op));
        let rss = host::peak_rss_mib();
        println!("setup_s       {:>12.4} s   {}", setup.median, fmt_summary(&setup));
        println!("eval_s        {:>12.4} s   {}", op.median, fmt_summary(&op));
        println!("rel_err       {:>12.4e} 1", out.rel_err);
        println!("peak_rss_mib  {:>12.1} MiB", rss);
        for (k, v) in &out.info {
            println!("# {k} = {v}");
        }
        let values = [setup.median, op.median, out.rel_err, rss];
        for ((metric, unit, _), v) in END_TO_END.iter().zip(values) {
            valid &= v.is_finite() && v > 0.0;
            metrics.push((metric.to_string(), metric_json(v, unit)));
        }
        side.push(("setup_s".into(), J::nums(&out.setup)));
        side.push(("op_s".into(), J::nums(&out.op)));
        side.push(("rel_err".into(), J::Num(out.rel_err)));
        side.push(("peak_rss_mib".into(), J::Num(rss)));
    }
    println!(
        "# reference loop {:.4} s before, {:.4} s after: spread {:.3}",
        refs[0],
        refs[1],
        spread(&refs)
    );
    println!(
        "failed_frac   {:>12.4} 1   ({} of {} operations failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let correct = tally.failed == 0 && valid;
    let result = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Num(tally.attempted.max(1) as f64)),
        ("failed", J::Num(tally.failed as f64)),
        ("metrics", J::Obj(metrics)),
    ]);
    side.push(("ref_loop_s".into(), J::nums(&refs)));
    side.push(("result".into(), result.clone()));
    let file = if args.trace { format!("{name}.layers.json") } else { format!("{name}.json") };
    write_result(&file, &(J::Obj(side).render() + "\n"));
    println!("{}", result.render());
    correct
}

fn spread(samples: &[f64]) -> f64 {
    fmax(samples.iter().copied()) / fmin(samples.iter().copied())
}

// ---------------------------------------------------------------- full set

/// Run this binary again on one workload; returns its result file parsed.
fn child(name: &str, args: &Args, seconds: f64, rounds: usize, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--rounds", &rounds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child: none is left behind.
    let output = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    // Everything but the machine-readable last line is for the reader.
    let text = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = text.lines().collect();
    for line in lines.iter().take(lines.len().saturating_sub(1)) {
        println!("{line}");
    }
    if !output.status.success() {
        eprintln!("kifmm-benchmark: {name} exited with {}", output.status);
        return None;
    }
    let file = if trace { format!("{name}.layers.json") } else { format!("{name}.json") };
    let text = std::fs::read_to_string(format!("{RESULTS_DIR}/{file}")).ok()?;
    Json::parse(&text).map_err(|e| eprintln!("kifmm-benchmark: {file}: {e}")).ok()
}

fn numbers(doc: &Json, key: &str) -> Vec<f64> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map_or(Vec::new(), |a| a.iter().filter_map(Json::as_f64).collect())
}

#[derive(Default)]
struct Merged {
    setup: Vec<f64>,
    op: Vec<f64>,
    rel_err: f64,
    rss: f64,
    attempted: f64,
    failed: f64,
}

/// Every workload in fresh child processes, samples in round-robin rounds
/// so that a noisy minute on the host lands on all workloads, not on one.
fn run_set(args: &Args) -> bool {
    let total = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let header = Header::collect("all", args.seed, total, args.smoke);
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let mut merged: Vec<Merged> = WORKLOADS.iter().map(|_| Merged::default()).collect();
    let mut refs = Vec::new();
    let mut ok = true;
    for round in 0..rounds {
        for (i, (name, _)) in WORKLOADS.iter().enumerate() {
            println!("## round {} of {rounds}: {name}", round + 1);
            let Some(doc) = child(name, args, total / rounds as f64, rounds, false) else {
                ok = false;
                continue;
            };
            let into = &mut merged[i];
            into.setup.extend(numbers(&doc, "setup_s"));
            into.op.extend(numbers(&doc, "op_s"));
            let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            into.rel_err = into.rel_err.max(num("rel_err"));
            into.rss = into.rss.max(num("peak_rss_mib"));
            let result = |k: &str| {
                doc.get("result").and_then(|r| r.get(k)).and_then(Json::as_f64).unwrap_or(f64::NAN)
            };
            into.attempted += result("attempted");
            into.failed += result("failed");
            refs.extend(numbers(&doc, "ref_loop_s"));
        }
    }

    let mut layers: Vec<(String, J)> = Vec::new();
    let mut trace_bodies = Vec::new();
    if args.trace {
        for (name, _) in WORKLOADS {
            println!("## traced: {name}");
            let Some(doc) = child(name, args, total, 1, true) else {
                ok = false;
                continue;
            };
            let values: Vec<(String, J)> = PER_LAYER
                .iter()
                .map(|(metric, unit, _)| {
                    let v = doc
                        .get("result")
                        .and_then(|r| r.get("metrics"))
                        .and_then(|m| m.get(metric))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN);
                    (metric.to_string(), metric_json(v, unit))
                })
                .collect();
            layers.push((name.to_string(), J::Obj(values)));
            ok &= doc.get("result").and_then(|r| r.get("correct")).and_then(Json::as_bool)
                == Some(true);
            refs.extend(numbers(&doc, "ref_loop_s"));
            if let Ok(text) = std::fs::read_to_string(format!("{RESULTS_DIR}/{name}.trace.json")) {
                let body = text.trim().trim_start_matches('[').trim_end_matches(']').trim();
                if !body.is_empty() {
                    trace_bodies.push(body.to_string());
                }
            }
        }
    }

    println!();
    header.print();
    println!("# {} round(s) per workload; host.ref_spread = {:.3}", rounds, spread(&refs));
    println!("{:<24} {:<14} {:>12} unit", "workload", "metric", "median");
    let mut doc_workloads = Vec::new();
    for ((name, _), w) in WORKLOADS.iter().zip(&merged) {
        if w.setup.is_empty() || w.op.is_empty() {
            println!("{name:<24} no valid samples");
            ok = false;
            continue;
        }
        let (setup, op) = (summarize(&w.setup), summarize(&w.op));
        println!(
            "{name:<24} {:<14} {:>12.4} s    {}",
            "setup_s",
            setup.median,
            fmt_summary(&setup)
        );
        println!("{name:<24} {:<14} {:>12.4} s    {}", "eval_s", op.median, fmt_summary(&op));
        println!("{name:<24} {:<14} {:>12.4e} 1", "rel_err", w.rel_err);
        println!("{name:<24} {:<14} {:>12.1} MiB", "peak_rss_mib", w.rss);
        println!(
            "{name:<24} {:<14} {:>12.4} 1    ({} of {} operations failed)",
            "failed_frac",
            w.failed / w.attempted.max(1.0),
            w.failed,
            w.attempted
        );
        ok &= w.failed == 0.0 && w.rel_err.is_finite();
        let timing = |s: &Summary, samples: &[f64]| {
            J::obj([
                ("median", J::Num(s.median)),
                ("q1", J::Num(s.q1)),
                ("q3", J::Num(s.q3)),
                ("min", J::Num(s.min)),
                ("n", J::Num(s.n as f64)),
                ("unit", J::str("s")),
                ("samples", J::nums(samples)),
            ])
        };
        doc_workloads.push((
            name.to_string(),
            J::obj([
                ("setup_s", timing(&setup, &w.setup)),
                ("eval_s", timing(&op, &w.op)),
                ("rel_err", metric_json(w.rel_err, "1")),
                ("peak_rss_mib", metric_json(w.rss, "MiB")),
                ("attempted", J::Num(w.attempted)),
                ("failed", J::Num(w.failed)),
            ]),
        ));
    }
    let mut doc = vec![
        ("header".to_string(), header.to_json()),
        ("rounds".to_string(), J::Num(rounds as f64)),
        ("host.ref_spread".to_string(), J::Num(spread(&refs))),
        ("workloads".to_string(), J::Obj(doc_workloads)),
    ];
    if args.trace {
        doc.push(("per_layer".to_string(), J::Obj(layers)));
        write_result("latest.trace.json", &format!("[\n{}\n]\n", trace_bodies.join(",\n")));
        println!("# per-layer metrics: see the traced runs above; trace: {RESULTS_DIR}/latest.trace.json");
    }
    write_result("latest.json", &(J::Obj(doc).render() + "\n"));
    println!(
        "# wrote {RESULTS_DIR}/latest.json; {}",
        if ok { "all checks passed" } else { "CHECKS FAILED" }
    );
    ok
}
