//! The benchmark's own span recorder.
//!
//! Deliberately not `kifmm-trace`: the instrument must not move when the
//! library's tracing changes. A recorder belongs to one thread (one per
//! virtual rank in the distributed workload); spans nest by call structure,
//! stay in memory, and are written as chrome-trace JSON when the run ends.

use crate::json::J;
use std::time::Instant;

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the same span list) of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one eval / matvec / solve.
    pub eval_id: u64,
    /// Chrome-trace track: the virtual rank, 0 for serial work.
    pub track: u32,
    /// Counts attached at this boundary (flops, messages, bytes).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.iter().filter(|(k, _)| *k == key).map(|(_, v)| v).sum()
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    track: u32,
    eval_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// Recorders of one run share `epoch` so their tracks line up.
    pub fn new(enabled: bool, epoch: Instant, track: u32) -> Self {
        Recorder { enabled, epoch, track, eval_id: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder that records nothing: `scope` just runs its closure.
    pub fn off() -> Self {
        Recorder::new(false, Instant::now(), 0)
    }

    /// Start a new evaluation: spans opened from now on carry `id`.
    pub fn begin_eval(&mut self, id: u64) {
        self.eval_id = id;
    }

    /// Open a span named `name`, child of the innermost open span. Spans
    /// close in the reverse order they were opened.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            eval_id: self.eval_id,
            track: self.track,
            counts: Vec::new(),
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].counts.push((key, value));
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, keeping parent links valid.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children never overlap: a recorder is single-threaded).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Durations in seconds of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
}

/// Chrome-trace events (`ph: "X"`), one per span, as the text of a JSON
/// array body *without* the surrounding brackets — so the full-set driver
/// can join the bodies of several runs. `pid` separates workloads.
pub fn chrome_events(spans: &[Span], pid: u32) -> String {
    let own = self_ns(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut args = vec![
            ("span".to_string(), J::Num(i as f64)),
            ("eval".to_string(), J::Num(s.eval_id as f64)),
            ("self_us".to_string(), J::Num(own[i] as f64 / 1e3)),
        ];
        if let Some(p) = s.parent {
            args.push(("parent".to_string(), J::Num(p as f64)));
        }
        for (k, v) in &s.counts {
            args.push((k.to_string(), J::Num(*v as f64)));
        }
        let event = J::obj([
            ("name", J::str(s.name)),
            ("cat", J::str(s.name.split('.').next().unwrap_or("bench"))),
            ("ph", J::str("X")),
            ("ts", J::Num(s.start_ns as f64 / 1e3)),
            ("dur", J::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("pid", J::Num(pid as f64)),
            ("tid", J::Num(s.track as f64)),
            ("args", J::Obj(args)),
        ]);
        out.push_str(&event.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_testkit::json::Json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, eval_id: 1, track: 0, counts: vec![] }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // solve [0,100) ── matvec [10,50) ── up [12,20), m2l [20,45)
        //               └─ matvec [55,95) ── m2l [60,90)
        let spans = vec![
            span("solve", 0, 100, None),
            span("matvec", 10, 50, Some(0)),
            span("up", 12, 20, Some(1)),
            span("m2l", 20, 45, Some(1)),
            span("matvec", 55, 95, Some(0)),
            span("m2l", 60, 90, Some(4)),
        ];
        // Only direct children are subtracted: solve loses its two matvecs
        // (80), not the passes under them.
        assert_eq!(self_ns(&spans), vec![20, 7, 8, 25, 10, 30]);
        // Self times partition the root's duration.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
        assert_eq!(durations(&spans, "matvec"), vec![40e-9, 40e-9]);
    }

    #[test]
    fn recorder_nests_counts_and_merges() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(true, epoch, 3);
        rec.begin_eval(7);
        let got = rec.scope("eval", |r| {
            r.scope("core.up", |r| r.count("flops", 10));
            r.scope("core.m2l", |r| {
                r.count("flops", 5);
                r.count("flops", 6);
            });
            r.count("msgs", 2);
            42
        });
        assert_eq!(got, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.eval_id == 7 && s.track == 3));
        assert_eq!(spans[2].count("flops"), 11);
        assert_eq!(spans[0].count("msgs"), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[4].parent, Some(3), "second list's links are rebased");

        let mut off = Recorder::off();
        assert_eq!(off.scope("eval", |r| r.scope("core.up", |_| 1)), 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn chrome_events_parse_as_json() {
        let mut spans =
            vec![span("eval", 1_000, 9_000, None), span("core.m2l", 2_000, 8_000, Some(0))];
        spans[1].counts.push(("flops", 123));
        let text = format!("[{}]", chrome_events(&spans, 2));
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.as_arr().expect("array");
        assert_eq!(events.len(), 2);
        let m2l = &events[1];
        assert_eq!(m2l.get("name").and_then(Json::as_str), Some("core.m2l"));
        assert_eq!(m2l.get("cat").and_then(Json::as_str), Some("core"));
        assert_eq!(m2l.get("dur").and_then(Json::as_f64), Some(6.0));
        let args = m2l.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("flops").and_then(Json::as_f64), Some(123.0));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("self_us")).and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
