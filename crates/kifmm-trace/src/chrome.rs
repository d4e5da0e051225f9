//! Chrome-trace ("Trace Event Format") exporter.
//!
//! The emitted document loads in `about://tracing` and
//! [Perfetto](https://ui.perfetto.dev). Layout:
//!
//! * one process (`pid` 0) named `kifmm`;
//! * one thread track per virtual rank (`tid` = rank id, named
//!   `rank N`);
//! * every completed span as a complete event (`"ph":"X"`) with `ts`/
//!   `dur` in microseconds of wall time and `args` carrying the
//!   thread-CPU microseconds (plus the optional `n` detail), so the
//!   viewer shows wall nesting while CPU time stays inspectable;
//! * every async begin/end pair (`"ph":"b"` / `"ph":"e"`) as an overlap
//!   bar above the rank's track — the in-flight gather/scatter exchanges
//!   rendered *across* the compute spans they overlap with, which is the
//!   paper's §3.2 picture;
//! * one counter summary instant event per rank (`"ph":"I"`) carrying
//!   the final counter values.

use crate::jsonw::{push_f64, push_str_lit};
use crate::{Counter, Tracer};

/// Microseconds with sub-ns kept as fraction (chrome accepts float ts).
fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

pub(crate) fn export(tracer: &Tracer) -> String {
    let Some(sink) = tracer.sink() else {
        return "{\"traceEvents\":[]}".to_string();
    };
    let ranks = sink.ranks();
    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };

    // Process metadata.
    sep(&mut out);
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"kifmm\"}}",
    );

    for (&rank, buf) in ranks.iter() {
        // Thread (rank track) metadata.
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));

        for s in &buf.spans() {
            sep(&mut out);
            out.push_str("{\"name\":");
            push_str_lit(&mut out, s.name);
            out.push_str(",\"cat\":");
            push_str_lit(&mut out, s.cat);
            out.push_str(",\"ph\":\"X\",\"ts\":");
            push_f64(&mut out, us(s.t0));
            out.push_str(",\"dur\":");
            push_f64(&mut out, us(s.wall));
            out.push_str(&format!(",\"pid\":0,\"tid\":{}", rank));
            out.push_str(",\"args\":{\"cpu_us\":");
            push_f64(&mut out, us(s.cpu));
            if let Some(n) = s.n {
                out.push_str(&format!(",\"n\":{n}"));
            }
            out.push_str("}}");
        }

        for a in &buf.lock().asyncs {
            sep(&mut out);
            out.push_str("{\"name\":");
            push_str_lit(&mut out, a.name);
            // Ids are namespaced by rank so bars never pair across ranks.
            out.push_str(&format!(
                ",\"cat\":\"comm\",\"ph\":\"{}\",\"id\":\"r{}-{}\",\"ts\":",
                if a.begin { 'b' } else { 'e' },
                rank,
                a.id
            ));
            push_f64(&mut out, us(a.ts));
            out.push_str(&format!(",\"pid\":0,\"tid\":{}}}", rank));
        }

        // Final counter values as one instant event per rank.
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"counters\",\"cat\":\"meta\",\"ph\":\"I\",\"s\":\"t\",\
             \"ts\":0,\"pid\":0,\"tid\":{},\"args\":{{",
            rank
        ));
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), buf.counter(*c)));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}");
    out
}
