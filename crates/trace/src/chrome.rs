//! Chrome trace-event JSON export (`chrome://tracing`, Perfetto).
//!
//! The export is stamped with the *deterministic* clock only — modeled
//! nanoseconds derived from record/pair/byte counters — and every
//! number is formatted with integer arithmetic, so the emitted bytes
//! are identical across runs and thread counts. Timestamps are
//! microseconds (the trace-event unit) with three fixed decimals.

use crate::{Span, SpanKind, WorkflowTrace};

/// Render a workflow trace as a Chrome trace-event JSON document.
///
/// One complete (`"ph":"X"`) event per span: the workflow on the driver
/// track (`tid` 0), jobs and phases likewise, per-node tasks on one
/// track per simulated node (`tid` = node + 1). Span ids and parent
/// links ride in `args` so the tree survives the flat event list.
pub fn to_chrome_json(trace: &WorkflowTrace) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\"traceEvents\":[\n");
    // Metadata: name the process and the per-node tracks.
    push_meta(&mut s, 0, "process_name", "papar simulated cluster");
    push_meta(&mut s, 0, "thread_name", "driver");
    for node in 0..trace.num_nodes() {
        push_meta(&mut s, node + 1, "thread_name", &format!("node {node}"));
    }
    let spans = trace.spans();
    for (i, span) in spans.iter().enumerate() {
        push_span(&mut s, span);
        if i + 1 < spans.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    s
}

fn push_meta(s: &mut String, tid: usize, name: &str, value: &str) {
    s.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"{name}\",\"args\":{{\"name\":\"{}\"}}}},\n",
        esc(value)
    ));
}

fn push_span(s: &mut String, span: &Span) {
    let (cat, tid) = match span.kind {
        SpanKind::Workflow => ("workflow", 0),
        SpanKind::Job => ("job", 0),
        SpanKind::Phase(_) => ("phase", 0),
        SpanKind::Task { node } => ("task", node + 1),
    };
    s.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{",
        esc(&span.name),
        micros(span.det_start_ns),
        micros(span.det_dur_ns),
    ));
    s.push_str(&format!("\"span\":{}", span.id));
    s.push_str(&format!(
        ",\"parent\":{}",
        span.parent.map(|p| p as i64).unwrap_or(-1)
    ));
    let c = &span.counters;
    for (key, v) in [
        ("records_in", c.records_in),
        ("records_out", c.records_out),
        ("pairs", c.pairs),
        ("shuffle_bytes", c.shuffle_bytes),
        ("shuffle_lo", c.shuffle_lo),
        ("messages", c.messages),
        ("frames_checksummed", c.frames_checksummed),
        ("retries", c.retries),
        ("crashes", c.crashes),
        ("restore_bytes", c.restore_bytes),
        ("restore_messages", c.restore_messages),
        ("retransmit_bytes", c.retransmit_bytes),
        ("retransmit_messages", c.retransmit_messages),
        ("replication_bytes", c.replication_bytes),
        ("checkpoint_bytes", c.checkpoint_bytes),
        ("restored_bytes", c.restored_bytes),
        ("backoff_ns", c.backoff_ns),
        ("staged_bytes", c.staged_bytes),
        ("staged_allocs", c.staged_allocs),
        ("materialized_bytes", c.materialized_bytes),
        ("tie_pairs", c.tie_pairs),
    ] {
        s.push_str(&format!(",\"{key}\":{v}"));
    }
    if let Some(skew) = &span.skew {
        push_u64_array(s, "skew_records", &skew.records);
        push_u64_array(s, "skew_bytes", &skew.bytes);
    }
    if !span.covers.is_empty() {
        s.push_str(",\"covers\":[");
        for (i, name) in span.covers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\"", esc(name)));
        }
        s.push(']');
    }
    s.push_str("}}");
}

fn push_u64_array(s: &mut String, key: &str, values: &[u64]) {
    s.push_str(&format!(",\"{key}\":["));
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
}

/// Nanoseconds as a microsecond JSON number with exactly three
/// decimals, via integer arithmetic (no float formatting anywhere near
/// the byte-identical output).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Minimal JSON string escaping for span names (operator ids may carry
/// arbitrary XML-sourced characters).
fn esc(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counters, JobTrace, PhaseKind, PhaseTrace, TaskTrace};
    use std::time::Duration;

    fn sample_trace() -> WorkflowTrace {
        WorkflowTrace {
            jobs: vec![JobTrace {
                name: "sort \"x\"".to_string(),
                phases: vec![
                    PhaseTrace::barrier(
                        PhaseKind::Map,
                        vec![
                            TaskTrace {
                                node: 0,
                                det_ns: 1_234_567,
                                ..TaskTrace::default()
                            },
                            TaskTrace {
                                node: 1,
                                det_ns: 2_000_000,
                                ..TaskTrace::default()
                            },
                        ],
                    ),
                    PhaseTrace::solo(
                        PhaseKind::Shuffle,
                        Duration::ZERO,
                        500,
                        Counters {
                            shuffle_bytes: 42,
                            ..Counters::default()
                        },
                    ),
                ],
                skew: Some(crate::SkewHistogram {
                    records: vec![5, 3],
                    bytes: vec![50, 30],
                }),
                covers: vec!["sort".to_string(), "distr".to_string()],
                fused_path: None,
            }],
        }
    }

    #[test]
    fn micros_formats_with_integer_math() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn export_is_structurally_valid_and_covers_spans() {
        let json = to_chrome_json(&sample_trace());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Escaped job name, all three span categories, skew arrays.
        assert!(json.contains("sort \\\"x\\\""));
        for cat in [
            "\"cat\":\"workflow\"",
            "\"cat\":\"job\"",
            "\"cat\":\"phase\"",
            "\"cat\":\"task\"",
        ] {
            assert!(json.contains(cat), "missing {cat}");
        }
        assert!(json.contains("\"skew_records\":[5,3]"));
        // The fused job span names the logical jobs it stands for.
        assert!(json.contains("\"covers\":[\"sort\",\"distr\"]"));
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"dur\":1234.567"));
        // Per-node tracks get named.
        assert!(json.contains("\"name\":\"node 1\""));
    }

    #[test]
    fn export_is_reproducible() {
        let a = to_chrome_json(&sample_trace());
        let b = to_chrome_json(&sample_trace());
        assert_eq!(a, b);
    }
}
