//! PageRank — the Figure 14 test algorithm — in a single-node reference
//! form and a distributed gather/apply/scatter form over a
//! [`PartitionAssignment`].
//!
//! The distributed execution follows the PowerGraph/PowerLyra model:
//!
//! 1. **gather** — every partition computes partial rank sums over its
//!    local in-edges;
//! 2. partials for replicated vertices travel to the vertex master
//!    (one f64 per mirror);
//! 3. **apply** — masters combine partials and apply the damping update;
//! 4. **scatter** — new ranks broadcast back to mirrors (one f64 per
//!    mirror).
//!
//! Per-iteration simulated time = max over partitions of measured local
//! compute + the α–β network cost of `2 * mirrors * 8` bytes. This is what
//! makes Figure 14 come out: the three cuts run the *same* algorithm and
//! differ only in edge balance (compute max) and mirror count (comm).

use papar_mr::stats::NetModel;
use std::time::{Duration, Instant};

use crate::graph::Graph;
use crate::partition::PartitionAssignment;
use crate::Result;

/// Damping factor used throughout (the standard 0.85).
pub const DAMPING: f64 = 0.85;

/// Single-node reference PageRank (power iteration, `iters` rounds).
///
/// Dangling-vertex mass is redistributed uniformly, the common convention.
pub fn reference_pagerank(graph: &Graph, iters: usize) -> Vec<f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        let mut dangling = 0.0;
        #[allow(clippy::needless_range_loop)] // v is both an index and a vertex id
        for v in 0..n {
            let out = graph.out_degree(v as u32);
            if out == 0 {
                dangling += rank[v];
            }
        }
        let base = (1.0 - DAMPING) / n as f64 + DAMPING * dangling / n as f64;
        for nx in next.iter_mut() {
            *nx = base;
        }
        for v in 0..n as u32 {
            let share = rank[v as usize] / graph.out_degree(v).max(1) as f64;
            for &d in graph.out_neighbors(v) {
                next[d as usize] += DAMPING * share;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Timing and volume summary of a distributed PageRank run.
#[derive(Debug, Clone, Default)]
pub struct PageRankStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Measured per-partition compute time, summed over iterations.
    pub compute_by_partition: Vec<Duration>,
    /// Bytes synchronized per iteration (gather partials + scatter ranks).
    pub bytes_per_iteration: u64,
    /// Modeled communication time per iteration.
    pub comm_per_iteration: Duration,
}

impl PageRankStats {
    /// Simulated total time: per-iteration barrier at the slowest
    /// partition plus communication, summed over iterations.
    ///
    /// Compute is tracked as a per-partition total; the per-iteration max
    /// is approximated by `max_partition_total / iterations`, exact when
    /// iterations are homogeneous (they are for PageRank).
    pub fn sim_time(&self) -> Duration {
        let max_compute = self
            .compute_by_partition
            .iter()
            .max()
            .copied()
            .unwrap_or_default();
        max_compute + self.comm_per_iteration * self.iterations as u32
    }
}

/// Distributed PageRank over an edge partition assignment.
///
/// Returns the ranks (bit-compatible across cuts up to float associativity;
/// partials combine in partition order so results are deterministic) and
/// the stats driving Figure 14.
pub fn distributed_pagerank(
    graph: &Graph,
    assignment: &PartitionAssignment,
    iters: usize,
    net: &NetModel,
) -> Result<(Vec<f64>, PageRankStats)> {
    assignment.validate_against(graph)?;
    let n = graph.num_vertices();
    let parts = assignment.num_partitions;
    let mut stats = PageRankStats {
        iterations: iters,
        compute_by_partition: vec![Duration::ZERO; parts],
        ..Default::default()
    };
    if n == 0 {
        return Ok((Vec::new(), stats));
    }

    // Communication volume per iteration depends on the execution model
    // the cut implies (the PowerLyra paper's own distinction):
    //
    // * vertex-style cuts (vertex, hybrid) run GAS with mirror
    //   aggregation — one partial (8 bytes) mirror->master and one rank
    //   (8 bytes) master->mirror per iteration;
    // * the edge-cut runs under the classic edge-cut engine, which ships a
    //   ghost update along every *cut edge* (no per-vertex combining of
    //   remote contributions), the very overhead hybrid/vertex cuts exist
    //   to avoid.
    let mirrors = assignment.mirror_count() as u64;
    stats.bytes_per_iteration = match assignment.kind {
        crate::partition::CutKind::EdgeCut => {
            let cut_edges: u64 = assignment
                .edges
                .iter()
                .enumerate()
                .map(|(p, edges)| {
                    edges
                        .iter()
                        .filter(|&&(s, _)| assignment.master[s as usize] != p as u32)
                        .count() as u64
                })
                .sum();
            cut_edges * 8 * 2
        }
        _ => mirrors * 8 * 2,
    };
    // Messages: one per (partition, partition) pair with any mirror
    // relationship; bounded by parts^2 per direction.
    let msgs = (parts as u64) * (parts as u64).saturating_sub(1);
    stats.comm_per_iteration = net.transfer_time(msgs, stats.bytes_per_iteration);

    // Precompute 1/out-degree: the per-edge gather must be as tight as a
    // real engine's (divisions in the inner loop would distort the
    // compute/communication balance the figure depends on).
    let inv_out: Vec<f64> = (0..n as u32)
        .map(|v| 1.0 / graph.out_degree(v).max(1) as f64)
        .collect();
    let mut rank = vec![1.0 / n as f64; n];
    let mut shares = vec![0.0f64; n];
    let mut partials = vec![0.0f64; n];
    for _ in 0..iters {
        // Dangling mass and base (computed by masters; cost negligible and
        // identical across cuts, so charged outside the per-partition
        // timers).
        let mut dangling = 0.0;
        #[allow(clippy::needless_range_loop)] // v is both an index and a vertex id
        for v in 0..n {
            if graph.out_degree(v as u32) == 0 {
                dangling += rank[v];
            }
        }
        let base = (1.0 - DAMPING) / n as f64 + DAMPING * dangling / n as f64;
        for v in 0..n {
            shares[v] = DAMPING * rank[v] * inv_out[v];
        }

        for p in partials.iter_mut() {
            *p = 0.0;
        }
        // Gather per partition, timed: this is the work whose balance the
        // cut controls.
        for (p, edges) in assignment.edges.iter().enumerate() {
            let t0 = Instant::now();
            for &(s, d) in edges {
                partials[d as usize] += shares[s as usize];
            }
            stats.compute_by_partition[p] += t0.elapsed();
        }
        // Apply.
        for v in 0..n {
            rank[v] = base + partials[v];
        }
    }
    Ok((rank, stats))
}

/// L1 distance between two rank vectors (for convergence checks in tests).
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::partition::{edge_cut, hybrid_cut, vertex_cut};

    #[test]
    fn reference_pagerank_on_known_graph() {
        // Symmetric cycle: uniform stationary distribution.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let r = reference_pagerank(&g, 50);
        for v in &r {
            assert!(
                (v - 0.25).abs() < 1e-12,
                "cycle ranks must be uniform: {r:?}"
            );
        }
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_mass_is_conserved_with_dangling_vertices() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]).unwrap(); // 1, 2 dangle
        let r = reference_pagerank(&g, 30);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{r:?}");
        assert!(r[1] > r[0]);
    }

    #[test]
    fn distributed_matches_reference_for_every_cut() {
        let g = gen::chung_lu(300, 2400, 2.1, 9).unwrap();
        let reference = reference_pagerank(&g, 10);
        let net = NetModel::infiniband_qdr();
        for asg in [
            edge_cut(&g, 4).unwrap(),
            vertex_cut(&g, 4).unwrap(),
            hybrid_cut(&g, 4, 40).unwrap(),
        ] {
            let (ranks, stats) = distributed_pagerank(&g, &asg, 10, &net).unwrap();
            assert!(
                l1_distance(&ranks, &reference) < 1e-9,
                "cut {:?} diverged from reference",
                asg.kind
            );
            assert_eq!(stats.iterations, 10);
        }
    }

    #[test]
    fn comm_volume_tracks_mirror_count() {
        let g = gen::chung_lu(500, 5000, 2.0, 13).unwrap();
        let net = NetModel::infiniband_qdr();
        let hybrid = hybrid_cut(&g, 8, 50).unwrap();
        let vertex = vertex_cut(&g, 8).unwrap();
        let (_, sh) = distributed_pagerank(&g, &hybrid, 2, &net).unwrap();
        let (_, sv) = distributed_pagerank(&g, &vertex, 2, &net).unwrap();
        assert_eq!(sh.bytes_per_iteration, hybrid.mirror_count() as u64 * 16);
        assert!(
            sh.bytes_per_iteration < sv.bytes_per_iteration,
            "hybrid should sync fewer mirror bytes"
        );
    }

    #[test]
    fn hybrid_cut_has_lowest_comm_on_power_law_graph() {
        // The Figure 14 headline: hybrid < vertex < edge on skewed graphs.
        // At this size the measured compute (~0.1 ms) is noise beside the
        // modeled communication, so assert the deterministic mechanism —
        // bytes synchronized and modeled comm per iteration — not the
        // wall-clock `sim_time`s.
        let g = gen::chung_lu(2000, 30_000, 2.0, 21).unwrap();
        let net = NetModel::ethernet_10g();
        let stats = |asg: &PartitionAssignment| distributed_pagerank(&g, asg, 5, &net).unwrap().1;
        let h = stats(&hybrid_cut(&g, 16, 100).unwrap());
        let v = stats(&vertex_cut(&g, 16).unwrap());
        let e = stats(&edge_cut(&g, 16).unwrap());
        let bytes = [
            h.bytes_per_iteration,
            v.bytes_per_iteration,
            e.bytes_per_iteration,
        ];
        assert!(
            bytes[0] < bytes[1] && bytes[1] < bytes[2],
            "bytes {bytes:?}"
        );
        let comm = [
            h.comm_per_iteration,
            v.comm_per_iteration,
            e.comm_per_iteration,
        ];
        assert!(comm[0] < comm[1] && comm[1] < comm[2], "comm {comm:?}");
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let asg = hybrid_cut(&g, 2, 5).unwrap();
        let (r, _) = distributed_pagerank(&g, &asg, 3, &NetModel::instant()).unwrap();
        assert!(r.is_empty());
        assert!(reference_pagerank(&g, 3).is_empty());
    }

    #[test]
    fn assignment_mismatch_is_rejected() {
        let g1 = gen::chung_lu(100, 500, 2.1, 1).unwrap();
        let g2 = gen::chung_lu(100, 500, 2.1, 2).unwrap();
        let asg = hybrid_cut(&g1, 4, 20).unwrap();
        assert!(distributed_pagerank(&g2, &asg, 2, &NetModel::instant()).is_err());
    }
}
