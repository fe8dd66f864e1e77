//! Chrome trace-event JSON export.
//!
//! Produces the JSON-array flavour of the trace-event format, loadable at
//! `chrome://tracing` or <https://ui.perfetto.dev>. Mapping:
//!
//! * each [`Track`] becomes one `(pid, tid)` row — cores are processes with
//!   `matrix`/`vector`/`dma` threads, DRAM channels and the NoC get their
//!   own synthetic processes;
//! * span events on compute lanes and the cluster track are complete (`X`)
//!   events — at most one runs at a time per lane, so they trivially nest;
//! * DMA transfer spans overlap freely on a core's `dma` row, so they are
//!   exported as async begin/end (`b`/`e`) pairs with unique ids, which the
//!   viewers stack without implying containment;
//! * zero-duration events become instants (`i`), and every synthetic
//!   process is named through `M` metadata records.
//!
//! Timestamps are simulated cycles passed through as the `ts` microsecond
//! field; absolute wall time is meaningless in a simulator, relative
//! placement is what matters.

use crate::event::{EventData, Lane, TraceEvent, Track};
use ptsim_common::json::escape;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Synthetic pid hosting the DRAM channel rows.
pub const DRAM_PID: u32 = 1000;
/// Synthetic pid hosting the NoC row.
pub const NOC_PID: u32 = 1001;
/// Synthetic pid hosting the scheduler row.
pub const SCHED_PID: u32 = 1002;
/// Synthetic pid hosting the cluster/collective row.
pub const CLUSTER_PID: u32 = 1003;
/// Synthetic pid hosting the compile-pipeline row (wall-clock µs).
pub const COMPILER_PID: u32 = 1004;
/// Synthetic pid hosting counter tracks (`ph: "C"` series).
pub const COUNTERS_PID: u32 = 1005;

/// One named counter series for export: `(ts, value)` points rendered as
/// Chrome counter (`ph: "C"`) events, which Perfetto draws as a filled
/// area chart under its own row. Points must be in non-decreasing `ts`
/// order (bucketed series from a counter hub naturally are).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Display name, e.g. `core0.matrix_busy`.
    pub name: String,
    /// `(timestamp, value)` samples in non-decreasing timestamp order.
    pub points: Vec<(u64, f64)>,
}

/// `(pid, tid-as-json)` pair for a track.
fn track_ids(track: Track) -> (u32, String) {
    match track {
        Track::Core { core, lane } => (core, format!("\"{}\"", lane.name())),
        Track::DramChannel(c) => (DRAM_PID, format!("\"ch{c}\"")),
        Track::Noc => (NOC_PID, "\"noc\"".to_string()),
        Track::Scheduler => (SCHED_PID, "\"sched\"".to_string()),
        Track::Cluster => (CLUSTER_PID, "\"collective\"".to_string()),
        Track::Compiler => (COMPILER_PID, "\"compile\"".to_string()),
    }
}

fn process_name(pid: u32) -> String {
    match pid {
        DRAM_PID => "dram".to_string(),
        NOC_PID => "noc".to_string(),
        SCHED_PID => "scheduler".to_string(),
        CLUSTER_PID => "cluster".to_string(),
        COMPILER_PID => "compiler".to_string(),
        COUNTERS_PID => "counters".to_string(),
        core => format!("core{core}"),
    }
}

/// Extra payload fields for the `args` object.
fn args_json(ev: &TraceEvent) -> String {
    let mut args = format!("\"tag\":{}", ev.tag);
    match &ev.data {
        EventData::TileCompute { .. } => {}
        EventData::DmaIssue { bytes, .. } | EventData::DmaTransfer { bytes, .. } => {
            let _ = write!(args, ",\"bytes\":{bytes}");
        }
        EventData::DramTx { outcome, bytes, latency, .. } => {
            let _ = write!(
                args,
                ",\"row\":\"{}\",\"bytes\":{bytes},\"latency\":{latency}",
                outcome.name()
            );
        }
        EventData::NocTransfer { src, dst, bytes, latency, crossed_chiplet } => {
            let _ = write!(
                args,
                ",\"src\":{src},\"dst\":{dst},\"bytes\":{bytes},\"latency\":{latency},\"chiplet_hop\":{crossed_chiplet}"
            );
        }
        EventData::Dispatch { tenant, model, batch } => {
            let _ = write!(
                args,
                ",\"tenant\":{tenant},\"model\":\"{}\",\"batch\":{batch}",
                escape(model)
            );
        }
        EventData::AllReduce { bytes, .. } => {
            let _ = write!(args, ",\"bytes\":{bytes}");
        }
        EventData::Marker { .. } => {}
    }
    args
}

/// Whether a span must be exported as an async pair because multiple
/// instances can overlap on its row.
fn is_async_span(ev: &TraceEvent) -> bool {
    matches!(ev.track, Track::Core { lane: Lane::Dma, .. })
}

/// Serializes events as a Chrome trace-event JSON array.
///
/// Events are emitted in non-decreasing timestamp order per track (the
/// whole array is globally sorted by start cycle). Returns `"[]"` for an
/// empty slice.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    export_chrome_trace_with_counters(events, &[])
}

/// Serializes events plus counter tracks as a Chrome trace-event JSON
/// array. Counter points become `ph: "C"` records on the synthetic
/// [`COUNTERS_PID`] process, one `tid` row per track, interleaved into the
/// same global time sort as the span/instant records.
pub fn export_chrome_trace_with_counters(
    events: &[TraceEvent],
    counters: &[CounterTrack],
) -> String {
    if events.is_empty() && counters.is_empty() {
        return "[]".to_string();
    }

    // Each record sorts by its own emission timestamp (an async `e` record
    // is stamped at span *end*, after later spans' begins), with longer
    // spans first at equal timestamps so nesting stays well-formed.
    let mut records: Vec<(u64, u64, usize, String)> = Vec::with_capacity(events.len() + 8);
    let mut seq = 0usize;
    let mut push = |records: &mut Vec<(u64, u64, usize, String)>, ts: u64, dur: u64, r: String| {
        records.push((ts, u64::MAX - dur, seq, r));
        seq += 1;
    };

    let mut next_async_id: u64 = 1;
    for ev in events {
        let (pid, tid) = track_ids(ev.track);
        let name = escape(&ev.name());
        let cat = ev.category();
        let args = args_json(ev);
        if ev.is_span() && is_async_span(ev) {
            let id = next_async_id;
            next_async_id += 1;
            push(
                &mut records,
                ev.at,
                ev.dur,
                format!(
                    r#"{{"name":"{name}","cat":"{cat}","ph":"b","id":{id},"ts":{},"pid":{pid},"tid":{tid},"args":{{{args}}}}}"#,
                    ev.at
                ),
            );
            push(
                &mut records,
                ev.end(),
                0,
                format!(
                    r#"{{"name":"{name}","cat":"{cat}","ph":"e","id":{id},"ts":{},"pid":{pid},"tid":{tid}}}"#,
                    ev.end()
                ),
            );
        } else if ev.is_span() {
            push(
                &mut records,
                ev.at,
                ev.dur,
                format!(
                    r#"{{"name":"{name}","cat":"{cat}","ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{tid},"args":{{{args}}}}}"#,
                    ev.at, ev.dur
                ),
            );
        } else {
            push(
                &mut records,
                ev.at,
                0,
                format!(
                    r#"{{"name":"{name}","cat":"{cat}","ph":"i","s":"t","ts":{},"pid":{pid},"tid":{tid},"args":{{{args}}}}}"#,
                    ev.at
                ),
            );
        }
    }
    for track in counters {
        let name = escape(&track.name);
        for &(ts, value) in &track.points {
            push(
                &mut records,
                ts,
                0,
                format!(
                    r#"{{"name":"{name}","cat":"counter","ph":"C","ts":{ts},"pid":{COUNTERS_PID},"tid":"{name}","args":{{"value":{value}}}}}"#
                ),
            );
        }
    }
    records.sort();

    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push('[');
    // Name the synthetic processes so Perfetto shows readable rows.
    let mut pids: BTreeSet<u32> = events.iter().map(|e| track_ids(e.track).0).collect();
    if !counters.is_empty() {
        pids.insert(COUNTERS_PID);
    }
    let mut first = true;
    for pid in pids {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":"meta","args":{{"name":"{}"}}}}"#,
            process_name(pid)
        );
    }
    for (_, _, _, record) in records {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&record);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RowOutcome;
    use crate::Tracer;

    #[test]
    fn empty_trace_is_empty_array() {
        assert_eq!(export_chrome_trace(&[]), "[]");
    }

    #[test]
    fn spans_instants_and_async_pairs_are_emitted() {
        let t = Tracer::new();
        t.compute_span(0, Lane::Matrix, "gemm_tile", 0, 100, 0);
        t.dma_span(0, 10, 60, 256, false, 0);
        t.dram_tx(1, 40, false, RowOutcome::Miss, 64, 30, 0);
        let json = export_chrome_trace(&t.events());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""name":"gemm_tile""#));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""name":"loadDMA""#));
        assert!(json.contains(r#""ph":"b""#) && json.contains(r#""ph":"e""#));
        assert!(json.contains(r#""name":"dramRd""#));
        assert!(json.contains(r#""row":"miss""#));
        assert!(json.contains(r#""tid":"matrix""#));
        assert!(json.contains(r#""tid":"ch1""#));
        assert!(json.contains(r#""name":"core0""#), "process metadata present");
    }

    #[test]
    fn counter_tracks_are_exported_as_c_records() {
        let t = Tracer::new();
        t.compute_span(0, Lane::Matrix, "gemm_tile", 0, 100, 0);
        let tracks = vec![
            CounterTrack {
                name: "core0.matrix_busy".into(),
                points: vec![(0, 64.0), (1024, 32.0)],
            },
            CounterTrack { name: "dram.ch0.bytes".into(), points: vec![(0, 4096.0)] },
        ];
        let json = export_chrome_trace_with_counters(&t.events(), &tracks);
        assert!(json.contains(r#""ph":"C""#), "{json}");
        assert!(json.contains(r#""name":"core0.matrix_busy""#));
        assert!(json.contains(r#""args":{"value":4096}"#));
        assert!(json.contains(r#""name":"counters""#), "counters process named");
        // Counters alone still produce a valid non-empty array.
        let only = export_chrome_trace_with_counters(&[], &tracks[..1]);
        assert!(only.starts_with('[') && only.contains(r#""ph":"C""#));
    }

    #[test]
    fn output_is_time_sorted() {
        let t = Tracer::new();
        t.compute_span(0, Lane::Vector, "late", 500, 10, 0);
        t.compute_span(0, Lane::Vector, "early", 5, 10, 0);
        let json = export_chrome_trace(&t.events());
        let early = json.find("early").unwrap();
        let late = json.find("late").unwrap();
        assert!(early < late);
    }
}
