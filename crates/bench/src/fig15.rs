//! Figure 15: (a) hybrid-cut partitioning time of PaPar vs the PowerLyra
//! baseline on 16 nodes, and (b) strong scalability of both from 1 to 16
//! nodes.

use papar_core::exec::ExecOptions;
use powerlyra::baseline::{powerlyra_partition_with_rounds, scoring_rounds};
use std::time::Duration;

use crate::datasets::{graphs, scaled_threshold, Scale};
use crate::measure;
use crate::report::{fmt_dur, fmt_ratio, phase_breakdown, Table};
use crate::workflows::run_hybrid;

fn papar_time(graph: &powerlyra::Graph, threshold: usize, nodes: usize) -> Duration {
    measure::avg_of(|| {
        run_hybrid(graph, 16, threshold, nodes, ExecOptions::default())
            .report
            .total_sim_time()
    })
}

fn powerlyra_time(graph: &powerlyra::Graph, threshold: usize, nodes: usize) -> Duration {
    // Clustering-dependent rescoring rounds (computed once per graph).
    let rounds = scoring_rounds(graph.triangles(), graph.num_edges());
    measure::avg_of(|| {
        powerlyra_partition_with_rounds(graph, 16, threshold, rounds)
            .expect("baseline")
            .modeled_time(nodes)
    })
}

/// One comparison row of Figure 15(a).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Graph name.
    pub graph: &'static str,
    /// PaPar at 16 nodes.
    pub papar: Duration,
    /// PowerLyra at 16 nodes.
    pub powerlyra: Duration,
}

/// Figure 15(a) data.
pub fn comparisons(scale: &Scale) -> Vec<Comparison> {
    let threshold = scaled_threshold(scale);
    graphs(scale)
        .into_iter()
        .map(|(name, graph)| Comparison {
            graph: name,
            papar: papar_time(&graph, threshold, 16),
            powerlyra: powerlyra_time(&graph, threshold, 16),
        })
        .collect()
}

/// One scaling point: `(nodes, papar time, powerlyra time)`.
pub type ScalePoint = (usize, Duration, Duration);

/// Figure 15(b) data: `(graph, [(nodes, papar, powerlyra)])`.
pub fn scaling(scale: &Scale) -> Vec<(&'static str, Vec<ScalePoint>)> {
    let threshold = scaled_threshold(scale);
    graphs(scale)
        .into_iter()
        .map(|(name, graph)| {
            let series = [1usize, 2, 4, 8, 16]
                .iter()
                .map(|&nodes| {
                    (
                        nodes,
                        papar_time(&graph, threshold, nodes),
                        powerlyra_time(&graph, threshold, nodes),
                    )
                })
                .collect();
            (name, series)
        })
        .collect()
}

/// Render Figure 15(a).
pub fn run_a(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 15a: hybrid-cut partitioning time on 16 nodes, PaPar vs PowerLyra",
        &["graph", "PowerLyra", "PaPar", "PaPar speedup"],
    );
    for c in comparisons(scale) {
        t.row(vec![
            c.graph.to_string(),
            fmt_dur(c.powerlyra),
            fmt_dur(c.papar),
            format!(
                "{}x",
                fmt_ratio(c.powerlyra.as_secs_f64() / c.papar.as_secs_f64())
            ),
        ]);
    }
    t.note("paper: PowerLyra faster on Google and Pokec; PaPar 1.2x faster on LiveJournal");
    // One traced representative run: the group/split/distribute pipeline's
    // per-phase composition.
    if let Some((_, graph)) = graphs(scale).into_iter().next() {
        let run = run_hybrid(
            &graph,
            16,
            scaled_threshold(scale),
            16,
            ExecOptions {
                trace: true,
                ..ExecOptions::default()
            },
        );
        if let Some(trace) = &run.report.trace {
            t.note(phase_breakdown(trace));
        }
        // The same run with fusion disabled: what the group→split rewrite
        // saves by streaming the packed groups (full ablation: `fusion`).
        let unfused = run_hybrid(
            &graph,
            16,
            scaled_threshold(scale),
            16,
            ExecOptions {
                fuse: false,
                ..ExecOptions::default()
            },
        );
        let shuffled = |r: &papar_core::exec::WorkflowReport| {
            r.jobs.iter().map(|j| j.exchange.remote_bytes).sum::<u64>()
        };
        t.note(format!(
            "job fusion: {} B shuffled in {} MR job(s) vs {} B in {} with --no-fuse",
            shuffled(&run.report),
            run.report.jobs.len(),
            shuffled(&unfused.report),
            unfused.report.jobs.len(),
        ));
    }
    t
}

/// Render Figure 15(b).
pub fn run_b(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 15b: strong scalability of hybrid-cut partitioning",
        &["graph", "nodes", "PaPar", "PowerLyra"],
    );
    for (g, series) in scaling(scale) {
        for (nodes, papar, pl) in series {
            t.row(vec![
                g.to_string(),
                nodes.to_string(),
                fmt_dur(papar),
                fmt_dur(pl),
            ]);
        }
    }
    t.note("paper: PaPar scales to 16 nodes on all three graphs; PowerLyra stops scaling early (Google: not at all)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    use papar_trace::PhaseKind;

    /// Records the busiest node maps across a traced PaPar run's jobs —
    /// the per-node work a larger cluster divides.
    fn papar_busiest_node(graph: &powerlyra::Graph, threshold: usize, nodes: usize) -> u64 {
        let options = ExecOptions {
            trace: true,
            ..ExecOptions::default()
        };
        let trace = run_hybrid(graph, 16, threshold, nodes, options)
            .report
            .trace
            .expect("traced run");
        let mut per_node = vec![0u64; nodes];
        for phase in trace.jobs.iter().flat_map(|j| &j.phases) {
            if phase.kind == PhaseKind::Map {
                for t in &phase.tasks {
                    per_node[t.node] += t.counters.records_in;
                }
            }
        }
        per_node.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn papar_scales_powerlyra_saturates() {
        // Per-node record counts, not measured times: the measured
        // `sim_time`s wobble under parallel test load.
        let threshold = scaled_threshold(&Scale::quick());
        for (g, graph) in graphs(&Scale::quick()) {
            let papar_1 = papar_busiest_node(&graph, threshold, 1);
            let papar_16 = papar_busiest_node(&graph, threshold, 16);
            assert!(
                papar_1 > 2 * papar_16,
                "{g}: PaPar should scale, busiest node maps {papar_1} -> {papar_16} records"
            );
            // PowerLyra's dynamic scoring does not parallelize: every
            // score lookup lands on one node, beside that node's share of
            // the edge placements, so 8 -> 16 nodes barely helps.
            let rounds = scoring_rounds(graph.triangles(), graph.num_edges());
            let run =
                powerlyra_partition_with_rounds(&graph, 16, threshold, rounds).expect("baseline");
            let busiest =
                |nodes: u64| run.score_lookups + (graph.num_edges() as u64).div_ceil(nodes);
            let (pl_8, pl_16) = (busiest(8), busiest(16));
            assert!(
                pl_16 * 10 > pl_8 * 7,
                "{g}: PowerLyra should saturate, busiest node {pl_8} -> {pl_16}"
            );
        }
    }
}
