//! Cross-crate observability integration: the tracer wired through the
//! serial evaluator, the shared-memory parallel evaluator, and the
//! distributed driver must (a) produce deterministic span trees for
//! deterministic runs, and (b) export chrome-trace JSON whose structure
//! survives a round trip through the hand-rolled parser.

use kifmm::parallel::ParallelFmm;
use kifmm::tree::partition_points;
use kifmm::{Counter, Fmm, FmmOptions, Laplace, Tracer, PHASE_NAMES};
use kifmm_testkit::json::Json;

fn points(n: usize, seed: u64) -> Vec<[f64; 3]> {
    kifmm::geom::uniform_cube(n, seed)
}

/// Structural span sequence for every rank the tracer saw.
fn span_keys(t: &Tracer) -> Vec<Vec<(u64, u32, &'static str, &'static str, Option<u64>)>> {
    t.span_records()
        .iter()
        .map(|spans| spans.iter().map(|s| s.structural_key()).collect())
        .collect()
}

#[test]
fn serial_span_tree_is_deterministic() {
    let pts = points(700, 5);
    let dens = vec![1.0; pts.len()];
    let keys: Vec<_> = (0..2)
        .map(|_| {
            let tracer = Tracer::enabled();
            let fmm = Fmm::builder(Laplace)
                .points(&pts)
                .order(4)
                .trace(tracer.clone())
                .build();
            let report = fmm.eval(&dens);
            assert!(report.trace.is_enabled());
            span_keys(&tracer)
        })
        .collect();
    assert!(!keys[0][0].is_empty(), "serial eval recorded spans");
    assert_eq!(keys[0], keys[1], "identical runs, identical span trees");
}

/// With one worker thread the shared-memory parallel evaluator must also
/// record an identical span tree run-to-run (the fork-join stages become
/// sequential, so even counter interleavings are fixed).
#[test]
fn parallel_eval_span_tree_is_deterministic_single_thread() {
    std::env::set_var("KIFMM_NUM_THREADS", "1");
    let pts = points(900, 11);
    let dens = vec![1.0; pts.len()];
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let tracer = Tracer::enabled();
            let mut fmm = Fmm::builder(Laplace).points(&pts).order(4).trace(tracer.clone()).build();
            fmm.set_parallel_eval(true);
            let report = fmm.eval(&dens);
            (span_keys(&tracer), tracer.counter_total(Counter::Flops), report.potentials)
        })
        .collect();
    assert!(!runs[0].0[0].is_empty(), "parallel eval recorded spans");
    assert_eq!(runs[0].0, runs[1].0, "identical span trees across runs");
    assert_eq!(runs[0].1, runs[1].1, "identical flop counters across runs");
    assert_eq!(runs[0].2, runs[1].2, "bit-identical potentials");
    std::env::remove_var("KIFMM_NUM_THREADS");
}

/// Distributed run: one chrome-trace track per rank, balanced async
/// overlap events, nonzero comm counters, and a parseable export whose
/// events are all named, of a known `ph`, and timed at `ts`, `dur` ≥ 0.
/// This is the one check of the artifact's shape.
#[test]
fn distributed_chrome_trace_round_trips() {
    let all = points(1200, 3);
    let chunks = partition_points(&all, 3).gather(&all);
    let tracer = Tracer::enabled();
    let tracer2 = tracer.clone();
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
    kifmm::mpi::run(3, move |comm| {
        let r = comm.rank();
        let mut pfmm = ParallelFmm::new(comm, Laplace, &chunks[r], opts);
        pfmm.set_trace(tracer2.clone());
        let report = pfmm.eval(comm, &vec![1.0; chunks[r].len()]);
        assert!(report.trace.is_enabled());
    });
    assert!(tracer.counter_total(Counter::BytesSent) > 0, "ranks exchanged data");
    assert_eq!(
        tracer.counter_total(Counter::BytesSent),
        tracer.counter_total(Counter::BytesRecv)
    );

    let doc = Json::parse(&tracer.chrome_trace_json()).expect("valid chrome JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let mut tids = Vec::new();
    let mut up_spans = 0usize;
    let (mut async_b, mut async_e) = (0usize, 0usize);
    for ev in events {
        let name = ev.get("name").and_then(Json::as_str).expect("every event has a name");
        match ev.get("ph").and_then(Json::as_str) {
            Some("X") => {
                let tid = ev.get("tid").and_then(Json::as_f64).expect("tid");
                if !tids.contains(&tid.to_bits()) {
                    tids.push(tid.to_bits());
                }
                assert!(ev.get("ts").and_then(Json::as_f64).expect("ts") >= 0.0);
                assert!(ev.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
                if name == "Up" {
                    up_spans += 1;
                }
            }
            Some("b") => async_b += 1,
            Some("e") => async_e += 1,
            Some("M" | "I") => {}
            other => panic!("event '{name}': unknown ph {other:?}"),
        }
    }
    assert_eq!(tids.len(), 3, "one span track per rank");
    assert_eq!(up_spans, 3, "every rank recorded its upward pass");
    assert_eq!(async_b, async_e, "balanced async begin/end pairs");
    assert!(async_b >= 6, "two overlapped exchanges per rank");
}

/// `(depth, cat, name, n)` of one rank's spans, in open order.
type SpanShape = (u32, &'static str, &'static str, Option<u64>);

fn span_shapes(t: &Tracer, rank: usize) -> Vec<SpanShape> {
    t.span_records()[rank].iter().map(|s| (s.depth, s.cat, s.name, s.n)).collect()
}

/// The literal span sequence of one evaluation on a depth-3 tree, serial
/// and on rank 0 of a P=2 run: the shared charging site may not rename,
/// reorder, nest or drop a span. (The distributed driver runs M2L twice
/// per level — interior targets under the equivalent exchange, boundary
/// targets after it; from `x-list` on, its compute spans are the serial
/// list's.)
#[test]
fn span_sequences_are_pinned() {
    let pts = points(700, 5);
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 10, ..Default::default() };

    let tracer = Tracer::enabled();
    let fmm = Fmm::builder(Laplace).points(&pts).options(opts).trace(tracer.clone()).build();
    assert_eq!(fmm.tree.depth(), 3);
    fmm.eval(&vec![1.0; pts.len()]);
    let serial: [SpanShape; 8] = [
        (0, "Up", "Up", None),
        (0, "DownV", "m2l", Some(2)),
        (0, "DownV", "m2l", Some(3)),
        (0, "DownX", "x-list", None),
        (0, "Eval", "l2l", None),
        (0, "DownU", "u-list", None),
        (0, "DownW", "w-list", None),
        (0, "Eval", "l2t", None),
    ];
    assert_eq!(span_shapes(&tracer, 0), serial);

    let chunks = partition_points(&pts, 2).gather(&pts);
    let tracer = Tracer::enabled();
    let tracer2 = tracer.clone();
    kifmm::mpi::run(2, move |comm| {
        let r = comm.rank();
        let mut pfmm = ParallelFmm::new(comm, Laplace, &chunks[r], opts);
        assert_eq!(pfmm.dtree.tree.depth(), 3);
        pfmm.set_trace(tracer2.clone());
        pfmm.eval(comm, &vec![1.0; chunks[r].len()]);
    });
    let rank0: [SpanShape; 15] = [
        (0, "Comm", "dens-gather", None),
        (0, "Up", "Up", None),
        (0, "Comm", "equiv-post", None),
        (0, "DownV", "m2l", Some(2)),
        (0, "DownV", "m2l", Some(3)),
        (0, "Comm", "equiv-drive", None),
        (0, "DownV", "m2l", Some(2)),
        (0, "DownV", "m2l", Some(3)),
        (0, "Comm", "dens-complete", None),
        (0, "DownX", "x-list", None),
        (0, "Eval", "l2l", None),
        (0, "DownU", "u-list", None),
        (0, "DownW", "w-list", None),
        (0, "Eval", "l2t", None),
        (0, "Eval", "scatter", None),
    ];
    assert_eq!(span_shapes(&tracer, 0), rank0);
}

/// Spans and `PhaseStats` are two sinks of one charging event: on the
/// serial path both read the thread-CPU clock around the same pass, so per
/// compute phase the summed span CPU time matches the charged seconds.
#[test]
fn span_cpu_matches_phase_seconds_serial() {
    let pts = points(3000, 17);
    let tracer = Tracer::enabled();
    let fmm = Fmm::builder(Laplace).points(&pts).order(4).trace(tracer.clone()).build();
    let stats = fmm.eval(&vec![1.0; pts.len()]).stats;
    let spans = &tracer.span_records()[0];
    for (i, phase) in PHASE_NAMES.iter().enumerate().filter(|(_, p)| **p != "Comm") {
        let span_cpu: f64 = spans.iter().filter(|s| s.cat == *phase).map(|s| s.cpu).sum();
        let charged = stats.seconds[i];
        assert!(
            (span_cpu - charged).abs() <= 0.05 * charged + 200e-6,
            "{phase}: spans {span_cpu} s vs PhaseStats {charged} s"
        );
    }
}

/// One point set through the serial, pool and P=1 distributed drivers:
/// the tracer's `CellsTouched` (boxes the upward pass touched + active
/// leaves) and `Flops` counters do not depend on the driver, and the flop
/// counter is the `PhaseStats` total.
#[test]
fn counters_agree_across_drivers() {
    let pts = points(1500, 23);
    let dens = vec![1.0; pts.len()];
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 25, ..Default::default() };
    // (cells touched, flop counter, PhaseStats flop total) of one run.
    let counters = |t: &Tracer, flops: u64| {
        (t.counter_total(Counter::CellsTouched), t.counter_total(Counter::Flops), flops)
    };
    let mut seen = Vec::new();
    for parallel in [false, true] {
        let tracer = Tracer::enabled();
        let mut fmm =
            Fmm::builder(Laplace).points(&pts).options(opts).trace(tracer.clone()).build();
        fmm.set_parallel_eval(parallel);
        let flops = fmm.eval(&dens).stats.total_flops();
        seen.push(counters(&tracer, flops));
    }
    let tracer = Tracer::enabled();
    let (tracer2, pts2) = (tracer.clone(), pts.clone());
    let flops = kifmm::mpi::run(1, move |comm| {
        let mut pfmm = ParallelFmm::new(comm, Laplace, &pts2, opts);
        pfmm.set_trace(tracer2.clone());
        pfmm.eval(comm, &dens).stats.total_flops()
    });
    seen.push(counters(&tracer, flops[0]));
    let (cells, counted, charged) = seen[0];
    assert!(cells > 0 && counted > 0);
    assert_eq!(counted, charged, "Counter::Flops is the PhaseStats total");
    assert_eq!(seen[1], seen[0], "pool vs serial (cells, flop counter, flop total)");
    assert_eq!(seen[2], seen[0], "P=1 distributed vs serial");
}
