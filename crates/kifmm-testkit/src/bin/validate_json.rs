//! CI gate for the tracing artifact.
//!
//! ```text
//! validate_json <file> --chrome [min_ranks]   # chrome-trace invariants
//! ```
//!
//! Exits nonzero with a diagnostic on the first violated invariant, so
//! `scripts/verify.sh` can gate on artifact shape without serde or
//! python in the image.

use kifmm_testkit::json::Json;
use std::process::ExitCode;

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
    let usage = || "usage: validate_json <file> --chrome [min_ranks]".to_string();
    let path = args.first().ok_or_else(usage)?;
    if args.get(1).map(String::as_str) != Some("--chrome") {
        return Err(usage());
    }
    let min_ranks: usize = match args.get(2) {
        Some(v) => v.parse().map_err(|_| usage())?,
        None => 1,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let ranks = check_chrome(&doc, min_ranks).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("{path}: valid chrome trace with {ranks} rank tracks"))
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
