//! # kifmm-trace — span-based tracing & metrics for the FMM
//!
//! The paper's entire evaluation is per-phase, per-rank accounting: the
//! Up/Comm/Down stage times of Figures 4.2/4.3 and the communication
//! volumes of Tables 4.1–4.3. This crate is the observability spine that
//! produces those numbers as machine-readable artifacts instead of ad-hoc
//! text dumps:
//!
//! * [`Tracer`] — a cheaply cloneable sink handle. [`Tracer::disabled`]
//!   is a no-op sink (a `None` inside; every operation short-circuits on
//!   one branch, so an untraced evaluation pays nothing measurable);
//!   [`Tracer::enabled`] records into **per-rank ring buffers**.
//! * [`RankTracer`] — one virtual rank's (thread's) handle, obtained via
//!   [`Tracer::rank`]. Spans and counters recorded through it land in
//!   that rank's buffer only, so rank threads never contend.
//! * [`Span`] — an RAII guard from [`RankTracer::span`] charging **wall
//!   time and thread-CPU time** to a `(category, name)` pair. Guards are
//!   strictly nested by construction (scope-based drop on one thread).
//! * [`Counter`] — integer metrics (flops, bytes/messages sent and
//!   received, tree cells touched) accumulated per rank.
//! * One exporter, one artifact format: [`Tracer::chrome_trace_json`]
//!   (load in `about://tracing` or [Perfetto](https://ui.perfetto.dev),
//!   one track per virtual rank, async bars for in-flight exchanges
//!   showing the paper's comm/compute overlap).
//!
//! Ring buffers have a fixed capacity ([`DEFAULT_CAPACITY`] spans per
//! rank); once full, the oldest spans are overwritten and
//! [`Tracer::dropped_spans`] reports how many were lost — tracing never
//! reallocates unboundedly inside a solve loop.

#![forbid(unsafe_code)]

mod chrome;
mod jsonw;

use kifmm_runtime::thread_cpu_time;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Per-rank ring-buffer capacity (spans).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Integer metrics accumulated per rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Counted floating-point operations.
    Flops = 0,
    /// Bytes handed to the message-passing substrate.
    BytesSent = 1,
    /// Bytes received from the message-passing substrate.
    BytesRecv = 2,
    /// Messages sent.
    MessagesSent = 3,
    /// Messages received.
    MessagesRecv = 4,
    /// Tree cells (boxes) touched by compute phases.
    CellsTouched = 5,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 6;

    /// All counters, in export order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Flops,
        Counter::BytesSent,
        Counter::BytesRecv,
        Counter::MessagesSent,
        Counter::MessagesRecv,
        Counter::CellsTouched,
    ];

    /// Stable snake_case key used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Flops => "flops",
            Counter::BytesSent => "bytes_sent",
            Counter::BytesRecv => "bytes_recv",
            Counter::MessagesSent => "messages_sent",
            Counter::MessagesRecv => "messages_recv",
            Counter::CellsTouched => "cells_touched",
        }
    }
}

/// One completed span, as stored in a rank's ring buffer.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Per-rank sequence number assigned when the span *opened* (sorting
    /// by `seq` recovers open order, i.e. pre-order of the span tree).
    pub seq: u64,
    /// Nesting depth at open (0 = top level).
    pub depth: u32,
    /// Category — by convention the phase name (`"Up"`, `"Comm"`, …).
    pub cat: &'static str,
    /// Label within the category.
    pub name: &'static str,
    /// Optional numeric detail (e.g. tree level), exported as `"n"`.
    pub n: Option<u64>,
    /// Wall-clock start, seconds since the tracer epoch.
    pub t0: f64,
    /// Wall-clock duration in seconds (non-negative).
    pub wall: f64,
    /// Thread-CPU time consumed between open and close, seconds.
    pub cpu: f64,
}

impl SpanRecord {
    /// The structural identity of the span — everything except the
    /// timings. Two runs of the same deterministic computation produce
    /// identical structural-key sequences (asserted in tests).
    pub fn structural_key(&self) -> (u64, u32, &'static str, &'static str, Option<u64>) {
        (self.seq, self.depth, self.cat, self.name, self.n)
    }
}

/// One async (overlap) event: a begin/end pair drawn as a bar above the
/// rank's track in the chrome trace viewer, visualizing an exchange that
/// is in flight while compute spans run underneath it.
#[derive(Clone, Debug)]
pub struct AsyncRecord {
    /// Pairing id (unique per rank; the exporter namespaces it by rank).
    pub id: u64,
    /// Event name (e.g. `"dens-exchange"`).
    pub name: &'static str,
    /// `true` for begin, `false` for end.
    pub begin: bool,
    /// Wall-clock timestamp, seconds since the tracer epoch.
    pub ts: f64,
}

/// Mutable portion of a rank's buffer (only the rank's own thread writes).
struct RankState {
    /// Completed spans; a ring once `capacity` is reached.
    spans: Vec<SpanRecord>,
    /// Next ring slot to overwrite when full.
    head: usize,
    /// Spans overwritten after the ring filled.
    dropped: u64,
    /// Current nesting depth (open spans).
    depth: u32,
    /// Next span sequence number.
    seq: u64,
    /// Async begin/end events (bounded by the same capacity).
    asyncs: Vec<AsyncRecord>,
}

/// One virtual rank's buffer: ring of spans + counters.
struct RankBuf {
    rank: usize,
    state: Mutex<RankState>,
    counters: [AtomicU64; Counter::COUNT],
}

impl RankBuf {
    fn new(rank: usize) -> Self {
        RankBuf {
            rank,
            state: Mutex::new(RankState {
                spans: Vec::new(),
                head: 0,
                dropped: 0,
                depth: 0,
                seq: 0,
                asyncs: Vec::new(),
            }),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RankState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Shared sink state behind an enabled [`Tracer`].
struct TraceSink {
    epoch: Instant,
    ranks: Mutex<Vec<Arc<RankBuf>>>,
}

impl TraceSink {
    /// Rank buffers sorted by rank id.
    fn sorted_ranks(&self) -> Vec<Arc<RankBuf>> {
        let mut bufs: Vec<Arc<RankBuf>> =
            self.ranks.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        bufs.sort_by_key(|b| b.rank);
        bufs
    }
}

/// The tracer handle: either a live sink or the no-op disabled sink.
///
/// Cloning shares the sink (an `Arc`), so a `Tracer` can be handed to
/// every virtual rank of a run and exported once at the end.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TraceSink>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(s) => write!(
                f,
                "Tracer(enabled, {} ranks)",
                s.ranks.lock().map(|r| r.len()).unwrap_or(0)
            ),
        }
    }
}

impl Tracer {
    /// The no-op sink: every span/counter operation is a single branch.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A live sink ([`DEFAULT_CAPACITY`] spans per rank).
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TraceSink {
                epoch: Instant::now(),
                ranks: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This rank's recording handle (creates the buffer on first use; a
    /// disabled tracer returns a no-op handle).
    pub fn rank(&self, rank: usize) -> RankTracer {
        let Some(sink) = &self.inner else {
            return RankTracer { inner: None };
        };
        let mut ranks = sink.ranks.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let buf = match ranks.iter().find(|b| b.rank == rank) {
            Some(b) => b.clone(),
            None => {
                let b = Arc::new(RankBuf::new(rank));
                ranks.push(b.clone());
                b
            }
        };
        drop(ranks);
        RankTracer { inner: Some(RankHandle { epoch: sink.epoch, buf }) }
    }

    /// Completed spans per rank (ascending rank id), each sorted by open
    /// order (`seq`). Empty when disabled.
    pub fn span_records(&self) -> Vec<Vec<SpanRecord>> {
        let Some(sink) = &self.inner else {
            return Vec::new();
        };
        sink.sorted_ranks()
            .iter()
            .map(|b| {
                let st = b.lock();
                let mut spans = st.spans.clone();
                spans.sort_by_key(|s| s.seq);
                spans
            })
            .collect()
    }

    /// A counter summed over all ranks.
    pub fn counter_total(&self, c: Counter) -> u64 {
        match &self.inner {
            None => 0,
            Some(s) => s
                .sorted_ranks()
                .iter()
                .map(|b| b.counters[c as usize].load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// A counter for one rank (0 if the rank has no buffer).
    pub fn rank_counter(&self, rank: usize, c: Counter) -> u64 {
        match &self.inner {
            None => 0,
            Some(s) => s
                .sorted_ranks()
                .iter()
                .find(|b| b.rank == rank)
                .map_or(0, |b| b.counters[c as usize].load(Ordering::Relaxed)),
        }
    }

    /// Spans lost to ring-buffer overwrite, summed over ranks.
    pub fn dropped_spans(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(s) => s.sorted_ranks().iter().map(|b| b.lock().dropped).sum(),
        }
    }

    /// Serialize everything recorded so far as chrome-trace JSON
    /// (`about://tracing` / Perfetto). One `tid` per virtual rank.
    pub fn chrome_trace_json(&self) -> String {
        chrome::export(self)
    }

    pub(crate) fn sink(&self) -> Option<&TraceSink> {
        self.inner.as_deref()
    }
}

// Crate-internal accessors for the chrome exporter.
pub(crate) struct RankDump {
    pub(crate) rank: usize,
    pub(crate) spans: Vec<SpanRecord>,
    pub(crate) asyncs: Vec<AsyncRecord>,
    pub(crate) counters: [u64; Counter::COUNT],
}

impl TraceSink {
    pub(crate) fn dump(&self) -> Vec<RankDump> {
        self.sorted_ranks()
            .iter()
            .map(|b| {
                let st = b.lock();
                let mut spans = st.spans.clone();
                spans.sort_by_key(|s| s.seq);
                RankDump {
                    rank: b.rank,
                    spans,
                    asyncs: st.asyncs.clone(),
                    counters: std::array::from_fn(|i| b.counters[i].load(Ordering::Relaxed)),
                }
            })
            .collect()
    }
}

/// A rank-bound recording handle (see [`Tracer::rank`]). Cloning is cheap
/// (two `Arc` bumps) and the clone records into the same rank buffer.
#[derive(Clone)]
pub struct RankTracer {
    inner: Option<RankHandle>,
}

#[derive(Clone)]
struct RankHandle {
    epoch: Instant,
    buf: Arc<RankBuf>,
}

impl Default for RankTracer {
    fn default() -> Self {
        RankTracer::disabled()
    }
}

impl RankTracer {
    /// A no-op handle (what a disabled [`Tracer`] hands out).
    pub fn disabled() -> RankTracer {
        RankTracer { inner: None }
    }

    /// Whether spans recorded through this handle are kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; wall and thread-CPU time between now and the guard's
    /// drop are charged to `(cat, name)`. Disabled: a branch and nothing
    /// else.
    #[inline]
    pub fn span(&self, cat: &'static str, name: &'static str) -> Span {
        let Some(h) = &self.inner else {
            return Span { inner: None };
        };
        let (seq, depth) = {
            let mut st = h.buf.lock();
            let seq = st.seq;
            st.seq += 1;
            let depth = st.depth;
            st.depth += 1;
            (seq, depth)
        };
        Span {
            inner: Some(SpanInner {
                handle: h.clone(),
                cat,
                name,
                n: None,
                seq,
                depth,
                t0: h.epoch.elapsed().as_secs_f64(),
                cpu0: thread_cpu_time(),
            }),
        }
    }

    /// Add `v` to counter `c` on this rank.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        if let Some(h) = &self.inner {
            h.buf.counters[c as usize].fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Record the begin of an async (overlap) bar. `id` must be unique
    /// among this rank's in-flight async events and must be matched by an
    /// [`RankTracer::async_end`] with the same `name` and `id`.
    #[inline]
    pub fn async_begin(&self, name: &'static str, id: u64) {
        self.async_event(name, id, true);
    }

    /// Record the end of an async (overlap) bar.
    #[inline]
    pub fn async_end(&self, name: &'static str, id: u64) {
        self.async_event(name, id, false);
    }

    fn async_event(&self, name: &'static str, id: u64, begin: bool) {
        if let Some(h) = &self.inner {
            let ts = h.epoch.elapsed().as_secs_f64();
            let mut st = h.buf.lock();
            if st.asyncs.len() < DEFAULT_CAPACITY {
                st.asyncs.push(AsyncRecord { id, name, begin, ts });
            }
        }
    }
}

/// RAII span guard (see [`RankTracer::span`]).
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    handle: RankHandle,
    cat: &'static str,
    name: &'static str,
    n: Option<u64>,
    seq: u64,
    depth: u32,
    t0: f64,
    cpu0: f64,
}

impl Span {
    /// Attach a numeric detail (e.g. tree level) exported as `"n"`.
    #[inline]
    pub fn with_n(mut self, n: u64) -> Span {
        if let Some(i) = &mut self.inner {
            i.n = Some(n);
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(i) = self.inner.take() else {
            return;
        };
        let wall = (i.handle.epoch.elapsed().as_secs_f64() - i.t0).max(0.0);
        let cpu = (thread_cpu_time() - i.cpu0).max(0.0);
        let rec = SpanRecord {
            seq: i.seq,
            depth: i.depth,
            cat: i.cat,
            name: i.name,
            n: i.n,
            t0: i.t0,
            wall,
            cpu,
        };
        let mut st = i.handle.buf.lock();
        st.depth = st.depth.saturating_sub(1);
        if st.spans.len() < DEFAULT_CAPACITY {
            st.spans.push(rec);
        } else {
            let head = st.head;
            st.spans[head] = rec;
            st.head = (head + 1) % DEFAULT_CAPACITY;
            st.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let rt = t.rank(0);
        assert!(!t.is_enabled() && !rt.is_enabled());
        {
            let _g = rt.span("Up", "upward").with_n(3);
        }
        rt.add(Counter::Flops, 123);
        rt.async_begin("x", 1);
        rt.async_end("x", 1);
        assert!(t.span_records().is_empty());
        assert_eq!(t.counter_total(Counter::Flops), 0);
        assert_eq!(t.chrome_trace_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn spans_nest_and_order_by_seq() {
        let t = Tracer::enabled();
        let rt = t.rank(0);
        {
            let _a = rt.span("Up", "outer");
            {
                let _b = rt.span("Up", "inner").with_n(7);
            }
            {
                let _c = rt.span("DownV", "inner2");
            }
        }
        let ranks = t.span_records();
        assert_eq!(ranks.len(), 1);
        let spans = &ranks[0];
        assert_eq!(spans.len(), 3);
        // seq order = open order (pre-order): outer, inner, inner2.
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].n, Some(7));
        assert_eq!(spans[2].name, "inner2");
        assert_eq!(spans[2].depth, 1);
        // Children are contained in the parent's wall interval.
        for child in &spans[1..] {
            assert!(child.t0 >= spans[0].t0 - 1e-9);
            assert!(child.t0 + child.wall <= spans[0].t0 + spans[0].wall + 1e-9);
        }
        for s in spans {
            assert!(s.wall >= 0.0 && s.cpu >= 0.0);
        }
    }

    #[test]
    fn counters_accumulate_per_rank() {
        let t = Tracer::enabled();
        t.rank(0).add(Counter::Flops, 10);
        t.rank(1).add(Counter::Flops, 32);
        t.rank(1).add(Counter::BytesSent, 7);
        assert_eq!(t.counter_total(Counter::Flops), 42);
        assert_eq!(t.rank_counter(1, Counter::Flops), 32);
        assert_eq!(t.rank_counter(0, Counter::BytesSent), 0);
        assert_eq!(t.rank_counter(1, Counter::BytesSent), 7);
        assert_eq!(t.span_records().len(), 2, "one buffer per rank");
    }

    #[test]
    fn cpu_time_not_charged_while_sleeping() {
        let t = Tracer::enabled();
        let rt = t.rank(0);
        {
            let _g = rt.span("Comm", "sleep");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let spans = &t.span_records()[0];
        assert!(spans[0].wall >= 0.015, "wall time sees the sleep: {}", spans[0].wall);
        assert!(spans[0].cpu < 0.010, "thread-CPU time does not: {}", spans[0].cpu);
    }

    #[test]
    fn ring_buffer_drops_oldest_not_newest() {
        let cap = DEFAULT_CAPACITY;
        let t = Tracer::enabled();
        let rt = t.rank(0);
        let total = cap + 10;
        for _ in 0..total {
            let _g = rt.span("Up", "tick");
        }
        assert_eq!(t.dropped_spans(), 10);
        let spans = &t.span_records()[0];
        assert_eq!(spans.len(), cap);
        // The newest span survived; the 10 oldest are gone.
        assert_eq!(spans.last().unwrap().seq, total as u64 - 1);
        assert_eq!(spans.first().unwrap().seq, 10);
    }
}
