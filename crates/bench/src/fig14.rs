//! Figure 14: normalized PageRank execution time under hybrid-cut,
//! edge-cut and vertex-cut, on 8 and 16 nodes, for the three graphs.
//!
//! All three partitionings execute under the same engine (PowerLyra +
//! GraphLab in the paper), whose shuffle rides sockets over Ethernet —
//! so the communication model here is [`NetModel::ethernet_10g`].

use papar_mr::stats::NetModel;
use powerlyra::pagerank::distributed_pagerank;
use powerlyra::partition::{edge_cut, hybrid_cut, vertex_cut};
use std::time::Duration;

use crate::datasets::{graphs, scaled_threshold, Scale};
use crate::report::{fmt_ratio, Table};

/// PageRank iterations per run.
pub const ITERATIONS: usize = 10;

/// One figure cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Graph name.
    pub graph: &'static str,
    /// Node count (one partition per node, like the paper's deployment).
    pub nodes: usize,
    /// Simulated times: (hybrid, edge, vertex).
    pub times: (Duration, Duration, Duration),
    /// Mirror-sync bytes per iteration: (hybrid, edge, vertex).
    pub bytes_per_iteration: (u64, u64, u64),
}

impl Row {
    /// (hybrid, edge, vertex) normalized to hybrid.
    pub fn normalized(&self) -> (f64, f64, f64) {
        let h = self.times.0.as_secs_f64();
        (
            1.0,
            self.times.1.as_secs_f64() / h,
            self.times.2.as_secs_f64() / h,
        )
    }
}

/// Compute the figure's data.
pub fn rows(scale: &Scale) -> Vec<Row> {
    let net = NetModel::ethernet_10g();
    let threshold = scaled_threshold(scale);
    let mut out = Vec::new();
    for (name, graph) in graphs(scale) {
        for nodes in [8usize, 16] {
            let stats = |asg: &powerlyra::PartitionAssignment| {
                distributed_pagerank(&graph, asg, ITERATIONS, &net)
                    .expect("pagerank")
                    .1
            };
            let h = stats(&hybrid_cut(&graph, nodes, threshold).expect("cut"));
            let e = stats(&edge_cut(&graph, nodes).expect("cut"));
            let v = stats(&vertex_cut(&graph, nodes).expect("cut"));
            out.push(Row {
                graph: name,
                nodes,
                times: (h.sim_time(), e.sim_time(), v.sim_time()),
                bytes_per_iteration: (
                    h.bytes_per_iteration,
                    e.bytes_per_iteration,
                    v.bytes_per_iteration,
                ),
            });
        }
    }
    out
}

/// Render the figure.
pub fn run(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 14: normalized PageRank execution time (hybrid-cut = 1.00)",
        &["graph", "nodes", "hybrid-cut", "edge-cut", "vertex-cut"],
    );
    for r in rows(scale) {
        let (h, e, v) = r.normalized();
        t.row(vec![
            r.graph.to_string(),
            r.nodes.to_string(),
            fmt_ratio(h),
            fmt_ratio(e),
            fmt_ratio(v),
        ]);
    }
    t.note("expected shape: hybrid best everywhere; vertex-cut closer to hybrid than edge-cut on these power-law graphs");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_wins_on_every_graph_and_node_count() {
        // Hybrid wins because it synchronizes the fewest mirrors; assert
        // that deterministic mechanism, not the measured `sim_time`s,
        // which include wall-clock compute and wobble under test load.
        for r in rows(&Scale::quick()) {
            let (h, e, v) = r.bytes_per_iteration;
            assert!(
                h < e && h < v,
                "{} nodes={}: hybrid must sync the fewest bytes (hybrid {h}, edge {e}, vertex {v})",
                r.graph,
                r.nodes
            );
        }
    }
}
