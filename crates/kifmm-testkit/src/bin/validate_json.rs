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
    "usage: validate_json <file> [--bench-summary [--max-eval-messages N] | --chrome [min_ranks]]"
        .to_string()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(comm_msgs: u64) -> Json {
        let phases: Vec<String> = PHASE_KEYS
            .iter()
            .map(|k| {
                let m = if *k == "Comm" { comm_msgs } else { 0 };
                format!(r#""{k}":{{"seconds":0.1,"flops":1,"gflops":0.1,"messages":{m},"bytes":8}}"#)
            })
            .collect();
        let doc = format!(
            r#"{{"schema":"kifmm-bench-v1","bench":"t","n":9,"order":4,"ranks":2,"tree_depth":2,
            "total_seconds":1,"total_flops":7,"gflops":1,"phases":{{{}}},
            "comm":{{"bytes_sent":8,"messages_sent":{comm_msgs}}}}}"#,
            phases.join(",")
        );
        Json::parse(&doc).unwrap()
    }

    #[test]
    fn bench_summary_caps_the_eval_messages() {
        assert_eq!(check_bench_summary(&summary(8), Some(8)), Ok(8));
        assert!(check_bench_summary(&summary(9), Some(8)).unwrap_err().contains("comm regression"));
        let wrong_schema = Json::parse(r#"{"schema":"kifmm-bench-v2"}"#).unwrap();
        assert!(check_bench_summary(&wrong_schema, None).is_err());
    }

    #[test]
    fn chrome_needs_every_rank_track_and_balanced_overlap_bars() {
        let span = |tid| format!(r#"{{"ph":"X","name":"Up","tid":{tid},"ts":0,"dur":5}}"#);
        let trace = |extra: &str| {
            let events = [span(0), span(1), r#"{"ph":"b","name":"x"}"#.into(), extra.into()];
            Json::parse(&format!(r#"{{"traceEvents":[{}]}}"#, events.join(","))).unwrap()
        };
        let balanced = trace(r#"{"ph":"e","name":"x"}"#);
        assert_eq!(check_chrome(&balanced, 2), Ok(2));
        assert!(check_chrome(&balanced, 3).is_err());
        assert!(check_chrome(&trace(r#"{"ph":"M","name":"m"}"#), 2).is_err());
    }
}
