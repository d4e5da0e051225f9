//! Phase instrumentation: wall/CPU time and exact flop counts.
//!
//! The paper reports its scalability numbers per *stage* of the interaction
//! calculation (Figures 4.2/4.3): `Up`, `Comm`, `DownU`, `DownV`, `DownW`,
//! `DownX` and `Eval`. The evaluator charges every operation to one of
//! these phases:
//!
//! * `Up` — S2M (source → upward check → upward equivalent) and M2M,
//!   including the check-to-equivalent inversions;
//! * `Comm` — message passing (zero in the shared-memory evaluator;
//!   populated by `kifmm-parallel`);
//! * `DownU` — dense near interactions (U lists);
//! * `DownV` — M2L translations (FFT or direct);
//! * `DownW` — W-list equivalent-to-target evaluations;
//! * `DownX` — X-list source-to-check evaluations;
//! * `Eval` — L2L (parent-to-child), downward check-to-equivalent
//!   inversions, and the final L2T evaluation at the targets.

/// Seconds of CPU time consumed by the calling thread
/// (`CLOCK_THREAD_CPUTIME_ID`, re-exported from the in-tree runtime's
/// raw-syscall binding — no libc).
///
/// The compute phases are timed with this clock rather than wall time:
/// the bench harness runs many virtual MPI ranks as threads on a few
/// cores, and thread CPU time stays meaningful under that oversubscription
/// while wall time would charge a rank for time it spent descheduled. On a
/// dedicated core the two clocks agree.
pub use kifmm_runtime::thread_cpu_time;
use kifmm_runtime::Dispatch;
use kifmm_trace::{Counter, RankTracer};
use std::time::Instant;

/// The seven instrumented stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Upward pass (S2M + M2M).
    Up = 0,
    /// Communication (distributed driver only).
    Comm = 1,
    /// Dense near-field interactions.
    DownU = 2,
    /// M2L translations.
    DownV = 3,
    /// W-list evaluations.
    DownW = 4,
    /// X-list evaluations.
    DownX = 5,
    /// L2L + final target evaluation.
    Eval = 6,
}

impl Phase {
    /// Number of instrumented phases.
    pub const COUNT: usize = 7;
}

/// All phases, in reporting order.
pub const PHASES: [Phase; Phase::COUNT] =
    [Phase::Up, Phase::Comm, Phase::DownU, Phase::DownV, Phase::DownW, Phase::DownX, Phase::Eval];

/// Short labels matching the paper's figures.
pub const PHASE_NAMES: [&str; Phase::COUNT] =
    ["Up", "Comm", "DownU", "DownV", "DownW", "DownX", "Eval"];

/// Per-phase timing and flop accounting for one interaction calculation.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Seconds charged per phase, on the clock [`Meter`] documents:
    /// thread-CPU time for serial compute passes (see
    /// [`thread_cpu_time`]), wall-clock for pool-dispatched passes and
    /// for `Comm`.
    pub seconds: [f64; Phase::COUNT],
    /// Exact counted floating-point operations per phase.
    pub flops: [u64; Phase::COUNT],
    /// Messages sent during the evaluation (zero in the shared-memory
    /// evaluators; charged once per evaluation by the distributed driver
    /// through [`Meter::traffic`]).
    pub comm_messages: u64,
    /// Bytes sent during the evaluation.
    pub comm_bytes: u64,
}

impl PhaseStats {
    /// New, zeroed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total seconds across phases.
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Total flops across phases.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// Downward seconds (the paper's `Down` column: everything after the
    /// communication step).
    pub fn down_seconds(&self) -> f64 {
        self.seconds[Phase::DownU as usize]
            + self.seconds[Phase::DownV as usize]
            + self.seconds[Phase::DownW as usize]
            + self.seconds[Phase::DownX as usize]
            + self.seconds[Phase::Eval as usize]
    }

    /// Accumulate another run's stats (used by the distributed driver to
    /// merge rank-local stats).
    pub fn merge(&mut self, other: &PhaseStats) {
        for i in 0..PHASES.len() {
            self.seconds[i] += other.seconds[i];
            self.flops[i] += other.flops[i];
        }
        self.add_comm(other.comm_messages, other.comm_bytes);
    }

    /// Add sent traffic ([`Meter`] and [`PhaseStats::merge`] are the only
    /// callers).
    fn add_comm(&mut self, messages: u64, bytes: u64) {
        self.comm_messages += messages;
        self.comm_bytes += bytes;
    }

    /// Add flops to a phase ([`Meter`] is the only caller).
    fn add_flops(&mut self, phase: Phase, flops: u64) {
        self.flops[phase as usize] += flops;
    }

    /// Add seconds to a phase ([`Meter`] is the only caller).
    fn add_seconds(&mut self, phase: Phase, secs: f64) {
        self.seconds[phase as usize] += secs;
    }
}

/// The one place a pass is charged. Every driver — serial and pool
/// (`Plan::execute`), distributed (`ParallelFmm::eval_many`) — runs each
/// pass through [`Meter::compute`] and each communication step through
/// [`Meter::comm`], so the span timeline, [`PhaseStats`] and
/// [`Counter::Flops`] are sinks of the same event and cannot drift apart.
/// An evaluation's traffic is charged the same way, once, through
/// [`Meter::traffic`].
///
/// Compute seconds are thread-CPU time under [`Dispatch::Serial`] and
/// wall-clock under [`Dispatch::Pool`] (work spreads across the pool;
/// per-thread CPU time would under-count). `Comm` seconds are always
/// wall-clock: a rank waiting on a peer burns no CPU.
pub struct Meter<'t> {
    rt: &'t RankTracer,
    /// The wall-clock origin under `Dispatch::Pool`; `None` reads the
    /// thread-CPU clock.
    wall: Option<Instant>,
    /// What has been charged so far.
    pub stats: PhaseStats,
}

impl<'t> Meter<'t> {
    /// A zeroed meter recording spans and counters into `rt`.
    pub fn new(rt: &'t RankTracer, dispatch: Dispatch) -> Self {
        let wall = (dispatch == Dispatch::Pool).then(Instant::now);
        Meter { rt, wall, stats: PhaseStats::new() }
    }

    fn now(&self) -> f64 {
        self.wall.map_or_else(thread_cpu_time, |t| t.elapsed().as_secs_f64())
    }

    /// Run one compute pass under the span `(PHASE_NAMES[phase], name)` —
    /// tagged `n = level` for per-level passes — and charge its seconds
    /// and the flop count it returns to `phase`.
    pub fn compute(
        &mut self,
        phase: Phase,
        name: &'static str,
        level: Option<u8>,
        pass: impl FnOnce() -> u64,
    ) {
        let span = self.rt.span(PHASE_NAMES[phase as usize], name);
        let _span = match level {
            Some(l) => span.with_n(l as u64),
            None => span,
        };
        let t0 = self.now();
        let flops = pass();
        self.stats.add_seconds(phase, self.now() - t0);
        self.stats.add_flops(phase, flops);
        self.rt.add(Counter::Flops, flops);
    }

    /// Run one communication step, charging its wall-clock seconds to
    /// [`Phase::Comm`], under a `Comm` span when `name` is given (the
    /// between-level exchange polls stay span-less).
    pub fn comm<T>(&mut self, name: Option<&'static str>, step: impl FnOnce() -> T) -> T {
        let _span = name.map(|n| self.rt.span(PHASE_NAMES[Phase::Comm as usize], n));
        let t0 = Instant::now();
        let out = step();
        self.stats.add_seconds(Phase::Comm, t0.elapsed().as_secs_f64());
        out
    }

    /// Charge the traffic one evaluation moved — `(messages, bytes)` sent
    /// and received, the difference of the substrate's ledger across the
    /// evaluation — to the sent totals of [`PhaseStats`] and the four
    /// `Counter::{MessagesSent, BytesSent, MessagesRecv, BytesRecv}`.
    pub fn traffic(&mut self, sent: (u64, u64), received: (u64, u64)) {
        self.stats.add_comm(sent.0, sent.1);
        self.rt.add(Counter::MessagesSent, sent.0);
        self.rt.add(Counter::BytesSent, sent.1);
        self.rt.add(Counter::MessagesRecv, received.0);
        self.rt.add(Counter::BytesRecv, received.1);
    }

    /// Count boxes a pass visited ([`Counter::CellsTouched`]): the upward
    /// pass charges the boxes it touched, the U pass its active leaves —
    /// the same two charges on every driver.
    pub fn touched(&self, cells: u64) {
        self.rt.add(Counter::CellsTouched, cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nap() -> u64 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        0
    }

    #[test]
    fn timed_accumulates() {
        let rt = RankTracer::disabled();
        let mut m = Meter::new(&rt, Dispatch::Serial);
        m.compute(Phase::Up, "Up", None, || 100);
        assert_eq!(m.stats.flops[0], 100);
        assert!(m.stats.seconds[0] >= 0.0);
        m.compute(Phase::Up, "Up", None, || 50);
        assert_eq!(m.stats.flops[0], 150);
        assert_eq!(m.comm(None, || 42), 42);
        assert_eq!(m.stats.total_flops(), 150);
    }

    /// Traffic is charged to both sinks in one call: the sent totals of
    /// `PhaseStats` and the four trace counters.
    #[test]
    fn traffic_feeds_stats_and_counters() {
        let tracer = kifmm_trace::Tracer::enabled();
        let rt = tracer.rank(0);
        let mut m = Meter::new(&rt, Dispatch::Serial);
        m.traffic((3, 400), (2, 64));
        m.traffic((1, 16), (0, 0));
        assert_eq!((m.stats.comm_messages, m.stats.comm_bytes), (4, 416));
        let counts =
            [Counter::MessagesSent, Counter::BytesSent, Counter::MessagesRecv, Counter::BytesRecv]
                .map(|c| tracer.counter_total(c));
        assert_eq!(counts, [4, 416, 2, 64]);
    }

    #[test]
    fn down_and_totals() {
        let mut s = PhaseStats::new();
        s.add_seconds(Phase::DownU, 1.0);
        s.add_seconds(Phase::DownV, 2.0);
        s.add_seconds(Phase::Eval, 0.5);
        s.add_seconds(Phase::Up, 4.0);
        s.add_seconds(Phase::Comm, 1.5);
        assert!((s.down_seconds() - 3.5).abs() < 1e-15);
        assert!((s.total_seconds() - 9.0).abs() < 1e-15);
    }

    #[test]
    fn merge_sums() {
        let mut a = PhaseStats::new();
        a.add_flops(Phase::DownV, 10);
        let mut b = PhaseStats::new();
        b.add_flops(Phase::DownV, 5);
        b.add_seconds(Phase::Comm, 2.0);
        b.add_comm(3, 400);
        a.add_comm(1, 16);
        a.merge(&b);
        assert_eq!(a.flops[Phase::DownV as usize], 15);
        assert_eq!(a.seconds[Phase::Comm as usize], 2.0);
        assert_eq!(a.comm_messages, 4);
        assert_eq!(a.comm_bytes, 416);
    }

    #[test]
    fn timed_charges_cpu_not_wall() {
        // The documented clock: a sleeping thread consumes no thread-CPU
        // time, so a serial compute pass is not charged the 20 ms nap.
        let rt = RankTracer::disabled();
        let mut m = Meter::new(&rt, Dispatch::Serial);
        m.compute(Phase::DownU, "u-list", None, nap);
        let charged = m.stats.seconds[Phase::DownU as usize];
        assert!(charged < 0.010, "sleep charged to a thread-CPU phase: {charged}s");
    }

    #[test]
    fn pool_and_comm_clocks_charge_wall() {
        let rt = RankTracer::disabled();
        let mut m = Meter::new(&rt, Dispatch::Pool);
        m.compute(Phase::DownU, "u-list", None, nap);
        m.comm(None, nap);
        for phase in [Phase::DownU, Phase::Comm] {
            let charged = m.stats.seconds[phase as usize];
            assert!(charged >= 0.020, "{phase:?} must charge wall time: {charged}s");
        }
    }

    #[test]
    fn phase_count_matches_tables() {
        assert_eq!(PHASES.len(), Phase::COUNT);
        assert_eq!(PHASE_NAMES.len(), Phase::COUNT);
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }
}
