//! Human and machine renderings of a workflow trace.
//!
//! [`render_profile`] prints the per-phase *virtual-time* breakdown the
//! paper's Figure 13 stacked bars show — measured times, summing
//! exactly to the reported makespan.

use std::time::Duration;

use crate::{FusedPath, PhaseKind, TaskTrace, WorkflowTrace};

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
        for phase in (job.phases.iter()).filter(|p| p.kind == PhaseKind::Map) {
            let label = node_label(&phase.tasks, |t| t.map_path);
            if label.is_empty() {
                continue;
            }
            let split: [Duration; 2] =
                std::array::from_fn(|i| phase.tasks.iter().map(|t| t.map_split[i]).sum());
            out.push_str(&format!("{:<24} └ map path: {label}", ""));
            if split.iter().any(|d| !d.is_zero()) {
                out.push_str(&format!(
                    "; route {}, copy {} (task CPU summed over nodes)",
                    fmt_dur(split[0]),
                    fmt_dur(split[1])
                ));
            }
            out.push('\n');
        }
        for phase in (job.phases.iter()).filter(|p| p.kind == PhaseKind::Reduce) {
            let split: [Duration; 3] =
                std::array::from_fn(|i| phase.tasks.iter().map(|t| t.reduce_split[i]).sum());
            if split.iter().any(|d| !d.is_zero()) {
                out.push_str(&format!(
                    "{:<24} └ reduce split: scan {}, sort {}{}, reduce {} (task CPU summed \
                     over nodes)\n",
                    "",
                    fmt_dur(split[0]),
                    fmt_dur(split[1]),
                    order_label(&phase.tasks),
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
        match &job.fused_path {
            Some(FusedPath::RankShuffle { keys }) => out.push_str(&format!(
                "{:<24} └ fused path: one shuffle by global rank (key histogram over {keys} \
                 keys)\n",
                ""
            )),
            Some(FusedPath::SortThenDistribute(why)) => out.push_str(&format!(
                "{:<24} └ fused path: the sort, then the distribute: {why}\n",
                ""
            )),
            None => {}
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

/// The orders a reduce phase's tasks built, for its split footnote:
/// ` (counting)` when every task built the same one, ` (counting on 3
/// nodes, packed on 1 node)` when they differ, nothing when none is named.
fn order_label(tasks: &[TaskTrace]) -> String {
    let names = named_nodes(tasks, |t| t.reduce_order);
    match names.as_slice() {
        [] => String::new(),
        [(order, _)] => format!(" ({order})"),
        _ => format!(" ({})", node_label(tasks, |t| t.reduce_order)),
    }
}

/// Each name `name_of` gives a phase's tasks, with its node count, in
/// first-seen order; tasks with an empty name are skipped.
fn named_nodes(
    tasks: &[TaskTrace],
    name_of: fn(&TaskTrace) -> &'static str,
) -> Vec<(&'static str, usize)> {
    let mut names: Vec<(&str, usize)> = Vec::new();
    for name in tasks.iter().map(name_of).filter(|n| !n.is_empty()) {
        match names.iter_mut().find(|(n, _)| *n == name) {
            Some((_, nodes)) => *nodes += 1,
            None => names.push((name, 1)),
        }
    }
    names
}

/// `stride rows on 4 nodes`, or `stride rows on 3 nodes, entries on 1
/// node`: the names `name_of` gives a phase's tasks, each with its node
/// count; empty when no task is named.
fn node_label(tasks: &[TaskTrace], name_of: fn(&TaskTrace) -> &'static str) -> String {
    let each = named_nodes(tasks, name_of)
        .into_iter()
        .map(|(name, nodes)| {
            let s = if nodes == 1 { "" } else { "s" };
            format!("{name} on {nodes} node{s}")
        });
    each.collect::<Vec<_>>().join(", ")
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
        // A stage traced as two rounds reads its records in the first
        // round's map and writes them in the last round's reduce; its
        // rounds' pairs add.
        let of = |kind| job.phases.iter().filter(move |p| p.kind == kind);
        let observed = Counters4 {
            records_in: (of(PhaseKind::Map).next()).map_or(0, |p| p.counters.records_in),
            records_out: (of(PhaseKind::Reduce).next_back()).map_or(0, |p| p.counters.records_out),
            pairs: of(PhaseKind::Map).map(|p| p.counters.pairs).sum(),
        };
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

struct Counters4 {
    records_in: u64,
    records_out: u64,
    pairs: u64,
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
                fused_path: None,
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

    /// The footnote names the order its tasks built: one name when they
    /// agree, each with its node count when they do not.
    #[test]
    fn reduce_split_footnote_names_the_order() {
        let task = |order| TaskTrace {
            reduce_split: [Duration::from_millis(1); 3],
            reduce_order: order,
            ..TaskTrace::default()
        };
        let footnote = |orders: &[&'static str]| {
            let mut t = trace();
            let tasks = orders.iter().map(|&o| task(o)).collect();
            t.jobs[0]
                .phases
                .push(PhaseTrace::barrier(PhaseKind::Reduce, tasks));
            render_profile(&t)
        };
        let one = footnote(&["counting", "counting"]);
        assert!(one.contains("sort 2.000 ms (counting), reduce"), "{one}");
        let mixed = footnote(&["counting", "packed", "counting", "counting"]);
        let want = "sort 4.000 ms (counting on 3 nodes, packed on 1 node), reduce";
        assert!(mixed.contains(want), "{mixed}");
    }

    /// A map phase's footnote names how its tasks pushed their pairs,
    /// with the stride path's route and copy CPU when it was measured; a
    /// task that pushed nothing is not counted.
    #[test]
    fn map_path_footnote_names_each_tasks_path() {
        let task = |path, split: u64| TaskTrace {
            map_path: path,
            map_split: [
                Duration::from_millis(split),
                Duration::from_millis(2 * split),
            ],
            ..TaskTrace::default()
        };
        let footnote = |tasks: Vec<TaskTrace>| {
            let mut t = trace();
            t.jobs[0].phases[0] = PhaseTrace::barrier(PhaseKind::Map, tasks);
            render_profile(&t)
        };
        let stride = footnote((0..4).map(|_| task("stride rows", 1)).collect());
        let want = "└ map path: stride rows on 4 nodes; route 4.000 ms, copy 8.000 ms (task CPU \
                    summed over nodes)";
        let at = stride.find(want).expect(&stride);
        assert!(at > stride.find("└ skew:").unwrap(), "{stride}");
        let mixed = footnote(vec![
            task("stride rows", 1),
            task("entries", 0),
            task("", 0),
        ]);
        let want = "└ map path: stride rows on 1 node, entries on 1 node; route 1.000 ms";
        assert!(mixed.contains(want), "{mixed}");
        let entries = footnote(vec![task("entries", 0), task("entries", 0)]);
        assert!(
            entries.contains("└ map path: entries on 2 nodes\n"),
            "{entries}"
        );
        assert!(!render_profile(&trace()).contains("map path"));
    }

    /// A fused sort→distribute stage names the path it took in a footnote
    /// of its own, last under its job: the rank shuffle, or the sort, then
    /// the distribute, and why. A job without one prints none.
    #[test]
    fn fused_path_footnote_follows_the_fused_job() {
        let paths = [
            (
                FusedPath::SortThenDistribute("its input has no rows".to_string()),
                "└ fused path: the sort, then the distribute: its input has no rows",
            ),
            (
                FusedPath::RankShuffle { keys: 2_993 },
                "└ fused path: one shuffle by global rank (key histogram over 2993 keys)",
            ),
        ];
        for (path, line) in paths {
            let mut t = trace();
            t.jobs[0].fused_path = Some(path);
            let rendered = render_profile(&t);
            let at = rendered.find(line).expect(&rendered);
            assert!(at > rendered.find("└ covers:").unwrap(), "{rendered}");
            assert!(at < rendered.find("total").unwrap(), "{rendered}");
        }
        assert!(!render_profile(&trace()).contains("fused path"));
    }

    #[test]
    fn empty_trace_renders_without_dividing_by_zero() {
        let rendered = render_profile(&WorkflowTrace::default());
        assert!(rendered.contains("total"));
        assert!(rendered.contains("0.0%"));
    }
}
