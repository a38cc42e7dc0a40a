//! Human and machine renderings of a workflow trace.
//!
//! [`render_profile`] prints the per-phase *virtual-time* breakdown the
//! paper's Figure 13 stacked bars show — measured times, summing
//! exactly to the reported makespan.

use std::time::Duration;

use crate::{PhaseKind, WorkflowTrace};

/// Render the per-phase virtual-time breakdown as a fixed-width table.
/// Phase rows within a job sum to the job's makespan and the total row
/// equals the workflow's reported makespan.
pub fn render_profile(trace: &WorkflowTrace) -> String {
    let total = trace.total_virt();
    let mut out = String::new();
    out.push_str("workflow profile (virtual time; phases sum to the makespan)\n");
    out.push_str(&format!(
        "{:<24} {:<8} {:>12} {:>7} {:>12} {:>12} {:>14} {:>12} {:>10}\n",
        "job", "phase", "time", "%", "cpu", "records", "bytes moved", "staged", "allocs"
    ));
    out.push_str(&format!(
        "{}\n",
        "-".repeat(24 + 1 + 8 + 1 + 12 + 1 + 7 + 1 + 12 + 1 + 12 + 1 + 14 + 1 + 12 + 1 + 10)
    ));
    for job in &trace.jobs {
        for phase in &job.phases {
            let c = &phase.counters;
            let records = match phase.kind {
                PhaseKind::Sample | PhaseKind::Map | PhaseKind::Restore => c.records_in,
                PhaseKind::Shuffle => c.pairs,
                PhaseKind::Reduce | PhaseKind::Checkpoint => c.records_out,
            };
            let bytes = c.shuffle_bytes
                + c.restore_bytes
                + c.retransmit_bytes
                + c.replication_bytes
                + c.checkpoint_bytes
                + c.restored_bytes;
            out.push_str(&format!(
                "{:<24} {:<8} {:>12} {:>6.1}% {:>12} {:>12} {:>14} {:>12} {:>10}\n",
                truncate(&job.name, 24),
                phase.kind.name(),
                fmt_dur(phase.virt),
                percent(phase.virt, total),
                fmt_dur(phase.cpu),
                records,
                bytes,
                c.staged_bytes,
                c.staged_allocs,
            ));
        }
        let (moved, lo) = (job.phases.iter()).fold((0, 0), |(moved, lo), ph| {
            (
                moved + ph.counters.shuffle_bytes,
                lo + ph.counters.shuffle_lo,
            )
        });
        if lo > 0 {
            out.push_str(&format!(
                "{:<24} └ shuffle: {moved} B moved, shuffle_lo {lo} B (records sent \
                 off-node + segment headers)\n",
                ""
            ));
        }
        if let Some(skew) = &job.skew {
            out.push_str(&format!(
                "{:<24} └ skew: imbalance {:.2} over {} reducers\n",
                "",
                skew.imbalance(),
                skew.records.len()
            ));
        }
        for phase in (job.phases.iter()).filter(|p| p.kind == PhaseKind::Reduce) {
            let split: [Duration; 3] =
                std::array::from_fn(|i| phase.tasks.iter().map(|t| t.reduce_split[i]).sum());
            if split.iter().any(|d| !d.is_zero()) {
                out.push_str(&format!(
                    "{:<24} └ reduce split: scan {}, sort {}, reduce {} (task CPU summed over \
                     nodes)\n",
                    "",
                    fmt_dur(split[0]),
                    fmt_dur(split[1]),
                    fmt_dur(split[2])
                ));
            }
        }
        if !job.covers.is_empty() {
            out.push_str(&format!(
                "{:<24} └ covers: fused logical jobs {}\n",
                "",
                job.covers.join(", ")
            ));
        }
    }
    out.push_str(&format!(
        "{:<24} {:<8} {:>12} {:>6.1}%\n",
        "total",
        "",
        fmt_dur(total),
        100.0 * f64::from(u8::from(total > Duration::ZERO))
    ));
    let c = trace.counters();
    if c.crashes > 0 || c.retries > 0 {
        out.push_str(&format!(
            "faults: {} injected, {} task retries, {} backoff, {} B restored, {} B retransmitted\n",
            c.crashes,
            c.retries,
            fmt_dur(Duration::from_nanos(c.backoff_ns)),
            c.restore_bytes,
            c.retransmit_bytes,
        ));
    }
    if c.staged_bytes > 0 {
        out.push_str(&format!(
            "hot path: {} B staged for sort, {} heap allocs, {} B materialized, {} tie pairs\n",
            c.staged_bytes, c.staged_allocs, c.materialized_bytes, c.tie_pairs,
        ));
    }
    out
}

/// Static `[lo, hi]` bounds of one job's counters, as computed by an
/// abstract interpretation *before* the run (`papar_core::bounds`; this
/// crate sits below the planner, so the caller flattens the intervals).
/// `hi == u64::MAX` means unbounded and renders as `?`.
#[derive(Debug, Clone)]
pub struct StaticBound {
    /// Job name, matched against [`JobTrace::name`].
    pub name: String,
    /// Records entering the map phase.
    pub records_in: (u64, u64),
    /// Records leaving the reduce phase.
    pub records_out: (u64, u64),
    /// Key-value pairs shuffled.
    pub pairs: (u64, u64),
    /// Member records on the busiest reducer.
    pub max_load: (u64, u64),
}

/// Render a bound-vs-observed table: each traced job's counters next to
/// the static interval that predicted them, flagging any escape. Jobs
/// without a matching bound (and bounds without a traced job) are
/// skipped — custom operators interpret to ⊤ and never flag.
pub fn render_bounds_check(trace: &WorkflowTrace, bounds: &[StaticBound]) -> String {
    let fmt_bound = |(lo, hi): (u64, u64)| -> String {
        if lo == hi {
            format!("{lo}")
        } else if hi == u64::MAX {
            format!("[{lo}, ?]")
        } else {
            format!("[{lo}, {hi}]")
        }
    };
    let mut out = String::new();
    out.push_str("static bounds vs observed (debug builds assert containment)\n");
    out.push_str(&format!(
        "{:<24} {:<12} {:>12} {:>16} {:>8}\n",
        "job", "counter", "observed", "bound", ""
    ));
    for job in &trace.jobs {
        let Some(b) = bounds.iter().find(|b| b.name == job.name) else {
            continue;
        };
        let mut observed = Counters4::default();
        for phase in &job.phases {
            let c = &phase.counters;
            match phase.kind {
                PhaseKind::Map => {
                    observed.records_in += c.records_in;
                    observed.pairs += c.pairs;
                }
                PhaseKind::Reduce => observed.records_out += c.records_out,
                _ => {}
            }
        }
        let max_load = job
            .skew
            .as_ref()
            .and_then(|s| s.records.iter().copied().max());
        let mut rows: Vec<(&str, u64, (u64, u64))> = vec![
            ("records_in", observed.records_in, b.records_in),
            ("pairs", observed.pairs, b.pairs),
            ("records_out", observed.records_out, b.records_out),
        ];
        if let Some(ml) = max_load {
            rows.push(("max_load", ml, b.max_load));
        }
        for (i, (counter, obs, bound)) in rows.iter().enumerate() {
            let ok = bound.0 <= *obs && *obs <= bound.1;
            out.push_str(&format!(
                "{:<24} {:<12} {:>12} {:>16} {:>8}\n",
                if i == 0 {
                    truncate(&job.name, 24)
                } else {
                    String::new()
                },
                counter,
                obs,
                fmt_bound(*bound),
                if ok { "ok" } else { "ESCAPED" },
            ));
        }
    }
    out
}

#[derive(Default)]
struct Counters4 {
    records_in: u64,
    records_out: u64,
    pairs: u64,
}

/// What an adaptive planning pass predicted for one profiled job (this
/// crate sits below the planner, so the caller flattens its rationale
/// into these plain numbers).
#[derive(Debug, Clone, Copy, Default)]
pub struct Prediction {
    /// Modeled end-to-end workflow cost.
    pub cost_ns: u64,
    /// Predicted busiest-reducer record count for the profiled job.
    pub max_load: u64,
    /// Predicted total shuffled bytes across all stages.
    pub shuffle_bytes: u64,
}

/// Render the predicted-vs-observed row of an adaptive run: the cost
/// model's prediction next to the trace's actuals, with the ratio that
/// tells the user whether the model (and hence the chosen plan) was
/// honest. `job` names the profiled job; its observed max load comes
/// from the skew histogram of the matching traced job (fused stages
/// match by prefix, e.g. `sort+distr` covers `sort`).
pub fn render_prediction_check(trace: &WorkflowTrace, job: &str, p: &Prediction) -> String {
    let observed_virt = trace.total_virt().as_nanos() as u64;
    let observed_bytes: u64 = trace
        .jobs
        .iter()
        .flat_map(|j| &j.phases)
        .map(|ph| ph.counters.shuffle_bytes)
        .sum();
    let observed_load = trace
        .jobs
        .iter()
        .filter(|j| j.name == job || j.name.starts_with(&format!("{job}+")))
        .filter_map(|j| j.skew.as_ref())
        .filter_map(|s| s.records.iter().copied().max())
        .max();
    let ratio = |pred: u64, obs: u64| -> String {
        if pred == 0 {
            "-".to_string()
        } else {
            format!("{:.2}x", obs as f64 / pred as f64)
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "adaptive prediction vs observed (profiled job '{job}')\n"
    ));
    out.push_str(&format!(
        "{:<16} {:>16} {:>16} {:>8}\n",
        "metric", "predicted", "observed", "ratio"
    ));
    out.push_str(&format!(
        "{:<16} {:>16} {:>16} {:>8}\n",
        "cost",
        fmt_dur(Duration::from_nanos(p.cost_ns)),
        fmt_dur(Duration::from_nanos(observed_virt)),
        ratio(p.cost_ns, observed_virt),
    ));
    if let Some(load) = observed_load {
        out.push_str(&format!(
            "{:<16} {:>16} {:>16} {:>8}\n",
            "max reducer load",
            p.max_load,
            load,
            ratio(p.max_load, load),
        ));
    }
    out.push_str(&format!(
        "{:<16} {:>16} {:>16} {:>8}\n",
        "shuffled bytes",
        p.shuffle_bytes,
        observed_bytes,
        ratio(p.shuffle_bytes, observed_bytes),
    ));
    out
}

fn percent(part: Duration, total: Duration) -> f64 {
    if total.is_zero() {
        0.0
    } else {
        100.0 * part.as_secs_f64() / total.as_secs_f64()
    }
}

fn truncate(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let cut: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// Adaptive duration formatting: µs below a millisecond, ms below a
/// second, seconds above.
fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counters, JobTrace, PhaseTrace, SkewHistogram, TaskTrace};

    fn trace() -> WorkflowTrace {
        WorkflowTrace {
            jobs: vec![JobTrace {
                name: "blast.sort".to_string(),
                phases: vec![
                    PhaseTrace::barrier(
                        PhaseKind::Map,
                        vec![TaskTrace {
                            node: 0,
                            virt: Duration::from_millis(6),
                            cpu: Duration::from_millis(5),
                            det_ns: 6_000_000,
                            counters: Counters {
                                records_in: 100,
                                pairs: 100,
                                ..Counters::default()
                            },
                            ..TaskTrace::default()
                        }],
                    ),
                    PhaseTrace::solo(
                        PhaseKind::Shuffle,
                        Duration::from_millis(4),
                        4_000_000,
                        Counters {
                            pairs: 100,
                            shuffle_bytes: 4096,
                            ..Counters::default()
                        },
                    ),
                ],
                skew: Some(SkewHistogram {
                    records: vec![60, 40],
                    bytes: vec![600, 400],
                }),
                covers: vec!["sort".to_string(), "distr".to_string()],
            }],
        }
    }

    #[test]
    fn profile_total_matches_makespan() {
        let t = trace();
        let rendered = render_profile(&t);
        assert!(rendered.contains("blast.sort"));
        assert!(rendered.contains("map"));
        assert!(rendered.contains("shuffle"));
        assert!(rendered.contains("10.000 ms")); // 6 + 4, the makespan
        assert!(rendered.contains("100.0%"));
        assert!(rendered.contains("skew: imbalance 1.20"));
        assert!(rendered.contains("covers: fused logical jobs sort, distr"));
    }

    #[test]
    fn bounds_check_flags_escapes_and_renders_intervals() {
        let t = trace();
        let bounds = vec![StaticBound {
            name: "blast.sort".to_string(),
            records_in: (100, 100),
            records_out: (0, u64::MAX),
            pairs: (0, 100),
            max_load: (50, 100),
        }];
        let rendered = render_bounds_check(&t, &bounds);
        assert!(rendered.contains("blast.sort"), "{rendered}");
        // Exact, capped, and unbounded forms all render.
        assert!(rendered.contains(" 100"), "{rendered}");
        assert!(rendered.contains("[0, ?]"), "{rendered}");
        // Skew max 60 lies inside [50, 100].
        assert!(rendered.contains("max_load"), "{rendered}");
        assert!(!rendered.contains("ESCAPED"), "{rendered}");
        // Shrink a bound below the observation: the row is flagged.
        let tight = vec![StaticBound {
            pairs: (0, 10),
            ..bounds[0].clone()
        }];
        let rendered = render_bounds_check(&t, &tight);
        assert!(rendered.contains("ESCAPED"), "{rendered}");
        // Jobs with no matching bound are skipped silently.
        assert!(render_bounds_check(&t, &[]).lines().count() <= 2);
    }

    #[test]
    fn prediction_check_reports_ratios_and_matches_fused_names() {
        let t = trace();
        let p = Prediction {
            cost_ns: 5_000_000,
            max_load: 50,
            shuffle_bytes: 2048,
        };
        // The traced job is `blast.sort`; profiled job `blast.sort`
        // matches exactly.
        let rendered = render_prediction_check(&t, "blast.sort", &p);
        assert!(
            rendered.contains("adaptive prediction vs observed"),
            "{rendered}"
        );
        assert!(rendered.contains("max reducer load"), "{rendered}");
        assert!(rendered.contains("2.00x"), "{rendered}"); // 10 ms / 5 ms
        assert!(rendered.contains("1.20x"), "{rendered}"); // 60 / 50
                                                           // A zero prediction renders `-` instead of dividing by zero.
        let rendered = render_prediction_check(&t, "blast.sort", &Prediction::default());
        assert!(rendered.contains('-'), "{rendered}");
        // A job with no skew histogram match omits the load row.
        let rendered = render_prediction_check(&t, "other", &p);
        assert!(!rendered.contains("max reducer load"), "{rendered}");
    }

    /// A reduce phase's footnote: its tasks' split summed over nodes,
    /// after the skew line; a phase that measured nothing prints none.
    #[test]
    fn reduce_split_footnote_sums_the_tasks() {
        let ms = Duration::from_millis;
        let task = |scan, sort, reduce| TaskTrace {
            reduce_split: [ms(scan), ms(sort), ms(reduce)],
            ..TaskTrace::default()
        };
        let mut t = trace();
        let reduce = PhaseTrace::barrier(PhaseKind::Reduce, vec![task(1, 2, 3), task(3, 4, 5)]);
        t.jobs[0].phases.push(reduce);
        let rendered = render_profile(&t);
        let line = "└ reduce split: scan 4.000 ms, sort 6.000 ms, reduce 8.000 ms";
        let at = rendered.find(line).expect(&rendered);
        assert!(at > rendered.find("└ skew:").unwrap(), "{rendered}");
        assert_eq!(rendered.matches("reduce split").count(), 1, "{rendered}");
        assert!(!render_profile(&trace()).contains("reduce split"));
    }

    #[test]
    fn empty_trace_renders_without_dividing_by_zero() {
        let rendered = render_profile(&WorkflowTrace::default());
        assert!(rendered.contains("total"));
        assert!(rendered.contains("0.0%"));
    }
}
