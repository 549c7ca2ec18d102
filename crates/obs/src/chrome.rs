//! Chrome-trace (`chrome://tracing` / Perfetto) JSON export.
//!
//! Renders a [`RunTrace`] in the Trace Event Format's JSON-object flavour:
//! one thread track per worker, complete (`"X"`) events for
//! `QueryStart`/`QueryEnd` and `BatchStart`/`BatchEnd` pairs, and instant
//! (`"i"`) events for everything else. Load the file at
//! `chrome://tracing` or <https://ui.perfetto.dev> (DESIGN.md §9 walks
//! through it).
//!
//! Timestamps: the format wants microseconds. Real-clock traces divide
//! their nanoseconds by 1000; virtual-time traces map 1 traversal step to
//! 1 µs, so simulated timelines read in steps directly.
//!
//! Rendered by hand like every other artifact in this repository — the
//! fields are scalars and the format is stable; a serde dependency would
//! buy nothing.

use crate::recorder::{RunTrace, WorkerTrace};
use crate::EventKind;

/// The fixed process id for all tracks (one analysed process).
const PID: u32 = 1;

/// Renders `trace` as Chrome-trace JSON.
pub fn chrome_trace_json(trace: &RunTrace) -> String {
    // ns → µs for real clocks; 1 virtual step = 1 µs for simulated ones.
    let scale = if trace.real_time { 1e-3 } else { 1.0 };
    let mut truncated_spans = 0usize;
    let mut events: Vec<(f64, String)> = Vec::with_capacity(trace.event_count() + 2);
    events.push((
        f64::NEG_INFINITY,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\
             \"args\":{{\"name\":\"parcfl ({})\"}}}}",
            if trace.real_time {
                "wall clock"
            } else {
                "virtual steps"
            }
        ),
    ));
    for w in &trace.workers {
        events.push((
            f64::NEG_INFINITY,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\
                 \"args\":{{\"name\":\"worker {}\"}}}}",
                w.worker, w.worker
            ),
        ));
        truncated_spans += render_worker(w, scale, &mut events);
    }
    // Emit in timestamp order so per-track timestamps are monotone in the
    // file (metadata first via the -inf sort key).
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let body: Vec<String> = events.into_iter().map(|(_, e)| e).collect();
    format!(
        "{{\"traceEvents\":[\n{}\n],\"truncated_spans\":{truncated_spans},\
         \"displayTimeUnit\":\"ms\"}}\n",
        body.join(",\n")
    )
}

/// Pairs span events and renders one worker's track into `out`. Returns
/// the number of spans truncated by ring overwrite (their end events were
/// lost, so a synthetic end was emitted at the track's last timestamp).
fn render_worker(w: &WorkerTrace, scale: f64, out: &mut Vec<(f64, String)>) -> usize {
    let tid = w.worker;
    // Queries never nest within a worker and batches never nest within a
    // session, but batches may enclose queries — one pending-start stack
    // per span family keeps the pairing trivial.
    let mut open_queries: Vec<(f64, u32)> = Vec::new();
    let mut open_batches: Vec<(f64, u32)> = Vec::new();
    let mut last_ts = 0.0f64;
    for e in &w.events {
        let ts = e.ts as f64 * scale;
        last_ts = last_ts.max(ts);
        match e.kind {
            EventKind::QueryStart => open_queries.push((ts, e.a)),
            EventKind::QueryEnd => {
                if let Some((t0, q)) = open_queries.pop() {
                    out.push((
                        t0,
                        format!(
                            "{{\"name\":\"query n{q}\",\"ph\":\"X\",\"pid\":{PID},\
                             \"tid\":{tid},\"ts\":{t0:.3},\"dur\":{:.3},\
                             \"args\":{{\"complete\":{}}}}}",
                            (ts - t0).max(0.0),
                            e.b
                        ),
                    ));
                }
            }
            EventKind::BatchStart => open_batches.push((ts, e.a)),
            EventKind::BatchEnd => {
                if let Some((t0, idx)) = open_batches.pop() {
                    out.push((
                        t0,
                        format!(
                            "{{\"name\":\"batch {idx}\",\"ph\":\"X\",\"pid\":{PID},\
                             \"tid\":{tid},\"ts\":{t0:.3},\"dur\":{:.3},\
                             \"args\":{{\"queries\":{}}}}}",
                            (ts - t0).max(0.0),
                            e.b
                        ),
                    ));
                }
            }
            kind => out.push((
                ts,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\
                     \"tid\":{tid},\"ts\":{ts:.3},\"args\":{{\"a\":{},\"b\":{}}}}}",
                    kind.label(),
                    e.a,
                    e.b
                ),
            )),
        }
    }
    // A dropped end event (ring overwrite) leaves its start unmatched.
    // Emit a synthetic complete event that runs to the track's last
    // timestamp — the span stays visible in the timeline instead of being
    // silently lost — and report it as truncated.
    let mut truncated = 0usize;
    let mut synthesize = |t0: f64, name: String, out: &mut Vec<(f64, String)>| {
        out.push((
            t0,
            format!(
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{PID},\
                 \"tid\":{tid},\"ts\":{t0:.3},\"dur\":{:.3},\
                 \"args\":{{\"truncated\":1}}}}",
                (last_ts - t0).max(0.0)
            ),
        ));
        truncated += 1;
    };
    for (t0, q) in open_queries {
        synthesize(t0, format!("query n{q}"), out);
    }
    for (t0, idx) in open_batches {
        synthesize(t0, format!("batch {idx}"), out);
    }
    truncated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;
    use crate::TraceLevel;

    fn traced_worker() -> WorkerTrace {
        let r = TraceRecorder::external(TraceLevel::Full);
        r.span(EventKind::GroupDequeued, 5, 2, 0);
        r.span(EventKind::QueryStart, 10, 42, 0);
        r.instant(EventKind::JmpHit, 15, 7, 100);
        r.span(EventKind::QueryEnd, 30, 42, 1);
        r.into_trace(0)
    }

    #[test]
    fn spans_pair_into_complete_events() {
        let t = RunTrace {
            real_time: false,
            workers: vec![traced_worker()],
        };
        let json = t.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(
            json.contains("\"name\":\"query n42\",\"ph\":\"X\""),
            "start/end collapse into one complete event: {json}"
        );
        assert!(json.contains("\"ts\":10.000,\"dur\":20.000"));
        assert!(json.contains("\"name\":\"jmp_hit\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"group_dequeued\""));
    }

    #[test]
    fn real_time_scales_ns_to_us() {
        let r = TraceRecorder::external(TraceLevel::Spans);
        r.span(EventKind::QueryStart, 2_000, 1, 0);
        r.span(EventKind::QueryEnd, 5_000, 1, 1);
        let t = RunTrace {
            real_time: true,
            workers: vec![r.into_trace(3)],
        };
        let json = t.to_chrome_json();
        assert!(
            json.contains("\"tid\":3,\"ts\":2.000,\"dur\":3.000"),
            "{json}"
        );
    }

    #[test]
    fn unmatched_start_gets_synthetic_end() {
        let r = TraceRecorder::external(TraceLevel::Spans);
        r.span(EventKind::QueryStart, 1, 9, 0);
        r.span(EventKind::QueryStart, 4, 11, 0);
        r.span(EventKind::QueryEnd, 6, 11, 1);
        let t = RunTrace {
            real_time: false,
            workers: vec![r.into_trace(0)],
        };
        let json = t.to_chrome_json();
        // The unmatched query span is closed at the track's last
        // timestamp (6) instead of being rendered begin-only or dropped.
        assert!(
            !json.contains("\"ph\":\"B\""),
            "no begin-only events: {json}"
        );
        assert!(
            json.contains(
                "\"name\":\"query n9\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":0,\"ts\":1.000,\"dur\":5.000"
            ),
            "synthetic end at last ts: {json}"
        );
        assert!(json.contains("\"args\":{\"truncated\":1}"));
        assert!(json.contains("\"truncated_spans\":1,"), "{json}");
    }

    #[test]
    fn ring_overflowed_trace_counts_truncated_spans() {
        // Capacity 2: the ring keeps the two starts and drops the two end
        // events, leaving both spans unmatched — the regression this
        // guards is those spans being silently lost from the export.
        let r = TraceRecorder::with_capacity(TraceLevel::Spans, crate::TraceClock::External, 2);
        r.span(EventKind::BatchStart, 0, 0, 0);
        r.span(EventKind::QueryStart, 2, 1, 0);
        r.span(EventKind::QueryEnd, 5, 1, 1);
        r.span(EventKind::BatchEnd, 9, 0, 1);
        let w = r.into_trace(0);
        assert_eq!(w.dropped, 2, "both end events fell off the ring");
        let t = RunTrace {
            real_time: false,
            workers: vec![w],
        };
        let json = t.to_chrome_json();
        assert!(json.contains("\"truncated_spans\":2,"), "{json}");
        assert!(!json.contains("\"ph\":\"B\""), "no begin-only leftovers");
        assert!(
            json.contains("\"name\":\"query n1\",\"ph\":\"X\""),
            "the truncated query span survives as a complete event: {json}"
        );
        assert!(json.contains("\"name\":\"batch 0\",\"ph\":\"X\""));
    }

    #[test]
    fn batch_spans_enclose_queries() {
        let r = TraceRecorder::external(TraceLevel::Spans);
        r.span(EventKind::BatchStart, 0, 0, 0);
        r.span(EventKind::QueryStart, 1, 5, 0);
        r.span(EventKind::QueryEnd, 2, 5, 1);
        r.span(EventKind::BatchEnd, 3, 0, 1);
        let t = RunTrace {
            real_time: false,
            workers: vec![r.into_trace(0)],
        };
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"batch 0\",\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"query n5\",\"ph\":\"X\""));
    }
}
