//! Structural validation of exported Chrome traces.
//!
//! Builds on the workspace's shared JSON parser ([`ptsim_common::json`])
//! with a checker asserting the properties tools rely on: every record is
//! an object with the mandatory keys, timestamps are non-decreasing per
//! `(pid, tid)` row, complete (`X`) spans nest properly within their row,
//! and async `b`/`e` pairs are balanced. Tests use it to prove exported
//! traces load cleanly in Perfetto-compatible viewers.

use ptsim_common::json::{parse_json, Json};
use std::collections::HashMap;

/// What a validated trace contained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total records, metadata included.
    pub records: usize,
    /// Complete (`X`) span events.
    pub spans: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Async begin/end pairs.
    pub async_pairs: usize,
    /// Counter (`C`) samples.
    pub counters: usize,
    /// Distinct `(pid, tid)` rows carrying events.
    pub tracks: usize,
}

/// Validates a Chrome trace-event JSON array.
///
/// Checks that the document is an array of objects; that every record has
/// string `name`/`ph` and numeric `pid` plus a `tid`; that non-metadata
/// records carry a numeric `ts`; that per `(pid, tid)` row timestamps are
/// non-decreasing and `X` spans nest properly; and that async `b`/`e`
/// events pair up with matching ids. Returns counts on success.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let doc = parse_json(json)?;
    let Json::Arr(records) = doc else {
        return Err("trace must be a JSON array".to_string());
    };
    let mut check = TraceCheck { records: records.len(), ..Default::default() };
    // Per-row state: last timestamp and the stack of open X-span end times.
    let mut last_ts: HashMap<String, f64> = HashMap::new();
    let mut open_spans: HashMap<String, Vec<f64>> = HashMap::new();
    // Open async begins keyed by (cat, id).
    let mut open_async: HashMap<String, f64> = HashMap::new();

    for (i, rec) in records.iter().enumerate() {
        let obj_err = |what: &str| format!("record {i}: {what}");
        if !matches!(rec, Json::Obj(_)) {
            return Err(obj_err("not an object"));
        }
        let ph =
            rec.get("ph").and_then(Json::as_str).ok_or_else(|| obj_err("missing string \"ph\""))?;
        rec.get("name").and_then(Json::as_str).ok_or_else(|| obj_err("missing string \"name\""))?;
        let pid = rec
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| obj_err("missing numeric \"pid\""))?;
        let tid = match rec.get("tid") {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => format!("{n}"),
            _ => return Err(obj_err("missing \"tid\"")),
        };
        if ph == "M" {
            continue;
        }
        let ts = rec
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| obj_err("missing numeric \"ts\""))?;
        let row = format!("{pid}/{tid}");
        let prev = last_ts.insert(row.clone(), ts).unwrap_or(f64::NEG_INFINITY);
        if ts < prev {
            return Err(obj_err(&format!("timestamps regress on row {row}: {ts} after {prev}")));
        }
        match ph {
            "X" => {
                let dur = rec
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| obj_err("X event missing \"dur\""))?;
                let end = ts + dur;
                let stack = open_spans.entry(row.clone()).or_default();
                while matches!(stack.last(), Some(&top) if top <= ts) {
                    stack.pop();
                }
                if let Some(&top) = stack.last() {
                    if end > top {
                        return Err(obj_err(&format!(
                            "span [{ts}, {end}) straddles enclosing span ending at {top} on row {row}"
                        )));
                    }
                }
                stack.push(end);
                check.spans += 1;
            }
            "i" | "I" => check.instants += 1,
            "C" => {
                // Counter samples must carry at least one numeric series
                // value in args, or viewers render an empty track.
                let ok = matches!(rec.get("args"), Some(Json::Obj(fields))
                    if fields.iter().any(|(_, v)| matches!(v, Json::Num(_))));
                if !ok {
                    return Err(obj_err("counter event lacks a numeric args value"));
                }
                check.counters += 1;
            }
            "b" => {
                let key = async_key(rec, i)?;
                if open_async.insert(key.clone(), ts).is_some() {
                    return Err(obj_err(&format!("duplicate async begin for id {key}")));
                }
            }
            "e" => {
                let key = async_key(rec, i)?;
                let begin = open_async
                    .remove(&key)
                    .ok_or_else(|| obj_err(&format!("async end without begin for id {key}")))?;
                if ts < begin {
                    return Err(obj_err("async end precedes its begin"));
                }
                check.async_pairs += 1;
            }
            other => return Err(obj_err(&format!("unsupported phase {other:?}"))),
        }
    }
    if !open_async.is_empty() {
        return Err(format!("{} async span(s) never ended", open_async.len()));
    }
    check.tracks = last_ts.len();
    Ok(check)
}

fn async_key(rec: &Json, i: usize) -> Result<String, String> {
    let cat = rec.get("cat").and_then(Json::as_str).unwrap_or("");
    match rec.get("id") {
        Some(Json::Num(n)) => Ok(format!("{cat}:{n}")),
        Some(Json::Str(s)) => Ok(format!("{cat}:{s}")),
        _ => Err(format!("record {i}: async event missing \"id\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::export_chrome_trace;
    use crate::event::{Lane, RowOutcome};
    use crate::Tracer;

    #[test]
    fn exported_trace_validates() {
        let t = Tracer::new();
        t.compute_span(0, Lane::Matrix, "a", 0, 100, 0);
        t.compute_span(0, Lane::Matrix, "b", 100, 50, 0);
        t.dma_span(0, 10, 80, 64, false, 0);
        t.dma_span(0, 20, 90, 64, true, 0); // overlapping DMA on one row
        t.dram_tx(0, 30, false, RowOutcome::Hit, 64, 12, 0);
        let json = export_chrome_trace(&t.events());
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.spans, 2);
        assert_eq!(check.async_pairs, 2);
        assert_eq!(check.instants, 1);
        assert!(check.tracks >= 3);
    }

    #[test]
    fn counter_records_validate_and_are_counted() {
        use crate::chrome::{export_chrome_trace_with_counters, CounterTrack};
        let t = Tracer::new();
        t.compute_span(0, Lane::Matrix, "a", 0, 100, 0);
        let tracks = vec![CounterTrack {
            name: "core0.matrix_busy".into(),
            points: vec![(0, 10.0), (1024, 20.0), (2048, 0.0)],
        }];
        let json = export_chrome_trace_with_counters(&t.events(), &tracks);
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.counters, 3);
        assert_eq!(check.spans, 1);
    }

    #[test]
    fn counter_records_without_numeric_args_are_rejected() {
        let json = r#"[{"name":"c","ph":"C","ts":0,"pid":1005,"tid":"c","args":{"value":"x"}}]"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("numeric args value"), "{err}");
    }

    #[test]
    fn regressing_timestamps_are_rejected() {
        let json = r#"[
            {"name":"a","ph":"i","s":"t","ts":10,"pid":0,"tid":"x"},
            {"name":"b","ph":"i","s":"t","ts":5,"pid":0,"tid":"x"}
        ]"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("regress"), "{err}");
    }

    #[test]
    fn straddling_spans_are_rejected() {
        let json = r#"[
            {"name":"outer","ph":"X","ts":0,"dur":10,"pid":0,"tid":"x"},
            {"name":"bad","ph":"X","ts":5,"dur":10,"pid":0,"tid":"x"}
        ]"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("straddles"), "{err}");
    }

    #[test]
    fn unbalanced_async_is_rejected() {
        let json = r#"[{"name":"d","cat":"dma","ph":"b","id":1,"ts":0,"pid":0,"tid":"dma"}]"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("never ended"), "{err}");
    }
}
