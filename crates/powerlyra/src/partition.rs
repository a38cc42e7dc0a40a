//! The three graph partitionings of paper Figure 14: edge-cut, vertex-cut
//! and hybrid-cut, with master/mirror replication accounting.
//!
//! Every partitioning is expressed the same way: an assignment of each
//! directed edge to one partition, plus a master partition per vertex.
//! A vertex is *replicated* on every partition holding at least one of its
//! edges; replicas other than the master are mirrors, and mirror
//! synchronization is what the distributed PageRank pays for per iteration
//! (the PowerGraph/PowerLyra cost model).
//!
//! The hybrid-cut's hash routing uses [`papar_record::Value::stable_hash`]
//! over the *decimal label* of the vertex — identical to what PaPar's
//! `graphVertexCut` policy computes on text edge lists — so the native
//! partitioner and the PaPar-generated one produce the same partitions,
//! which `tests/correctness_powerlyra.rs` verifies (the paper's
//! correctness claim).

use papar_record::Value;

use crate::graph::Graph;
use crate::{GraphError, Result};

/// Which cut produced an assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// Vertices hashed to partitions; an edge lives with its destination's
    /// owner; edges whose endpoints disagree are "cut".
    EdgeCut,
    /// PowerGraph-style random vertex-cut: every edge is hashed to a
    /// partition independently; vertices replicate wherever their edges
    /// land.
    VertexCut,
    /// PowerLyra hybrid-cut: low-degree vertices keep all in-edges on one
    /// partition (hash of the destination); high-degree vertices spread
    /// in-edges by source hash.
    HybridCut,
}

/// An edge→partition assignment with replication tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionAssignment {
    /// Which cut built this.
    pub kind: CutKind,
    /// Number of partitions.
    pub num_partitions: usize,
    /// `edges[p]` holds the directed edges of partition `p`.
    pub edges: Vec<Vec<(u32, u32)>>,
    /// Master partition of each vertex.
    pub master: Vec<u32>,
    /// For each vertex, the sorted list of partitions holding at least one
    /// of its edges (its replicas).
    pub replicas: Vec<Vec<u32>>,
}

/// Partition a vertex label exactly the way PaPar's `graphVertexCut`
/// policy does: FNV over the decimal string form.
pub fn label_partition(v: u32, parts: usize) -> usize {
    (Value::from(v.to_string()).stable_hash() % parts as u64) as usize
}

impl PartitionAssignment {
    fn build(
        kind: CutKind,
        graph: &Graph,
        num_partitions: usize,
        edge_to_part: impl Fn(u32, u32) -> usize,
    ) -> Result<Self> {
        if num_partitions == 0 {
            return Err(GraphError("need at least one partition".into()));
        }
        let nv = graph.num_vertices();
        let mut edges: Vec<Vec<(u32, u32)>> = (0..num_partitions).map(|_| Vec::new()).collect();
        let mut present: Vec<Vec<u32>> = vec![Vec::new(); nv];
        for (s, d) in graph.edges() {
            let p = edge_to_part(s, d);
            debug_assert!(p < num_partitions);
            edges[p].push((s, d));
            for v in [s, d] {
                let list = &mut present[v as usize];
                if !list.contains(&(p as u32)) {
                    list.push(p as u32);
                }
            }
        }
        let mut master = vec![0u32; nv];
        let mut replicas = Vec::with_capacity(nv);
        for v in 0..nv {
            let mut list = std::mem::take(&mut present[v]);
            list.sort_unstable();
            // Master: the label-hash partition when it holds a replica
            // (PowerLyra places low-degree masters with their in-edges),
            // otherwise the first replica, or the hash partition for
            // isolated vertices.
            let hashed = label_partition(v as u32, num_partitions) as u32;
            master[v] = if list.is_empty() || list.contains(&hashed) {
                hashed
            } else {
                list[0]
            };
            replicas.push(list);
        }
        Ok(PartitionAssignment {
            kind,
            num_partitions,
            edges,
            master,
            replicas,
        })
    }

    /// Total replicas across vertices divided by vertices with any edge —
    /// the replication factor PowerGraph/PowerLyra report; mirrors drive
    /// communication.
    pub fn replication_factor(&self) -> f64 {
        let (mut reps, mut verts) = (0usize, 0usize);
        for list in &self.replicas {
            if !list.is_empty() {
                reps += list.len();
                verts += 1;
            }
        }
        if verts == 0 {
            0.0
        } else {
            reps as f64 / verts as f64
        }
    }

    /// Number of mirrors (replicas that are not the master).
    pub fn mirror_count(&self) -> usize {
        self.replicas
            .iter()
            .enumerate()
            .map(|(v, list)| list.iter().filter(|&&p| p != self.master[v]).count())
            .sum()
    }

    /// Edge counts per partition (compute balance).
    pub fn edge_counts(&self) -> Vec<usize> {
        self.edges.iter().map(Vec::len).collect()
    }

    /// Largest / average edge count — the compute imbalance factor.
    pub fn edge_imbalance(&self) -> f64 {
        let counts = self.edge_counts();
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let avg = self.total_edges() as f64 / self.num_partitions as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }

    /// Total edges across partitions.
    pub fn total_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Check the assignment is a *partition*: every graph edge appears
    /// exactly once.
    pub fn validate_against(&self, graph: &Graph) -> Result<()> {
        if self.total_edges() != graph.num_edges() {
            return Err(GraphError(format!(
                "assignment has {} edges, graph has {}",
                self.total_edges(),
                graph.num_edges()
            )));
        }
        let mut mine: Vec<(u32, u32)> = self.edges.iter().flatten().copied().collect();
        let mut theirs: Vec<(u32, u32)> = graph.edges().collect();
        mine.sort_unstable();
        theirs.sort_unstable();
        if mine != theirs {
            return Err(GraphError(
                "assignment edges differ from graph edges".into(),
            ));
        }
        Ok(())
    }
}

/// Precompute every vertex's hash partition (one label render + hash per
/// vertex instead of per edge — the native partitioners are the *fast*
/// side of the Figure 15 comparison and must not pay per-edge string
/// formatting).
pub fn vertex_partitions(num_vertices: usize, parts: usize) -> Vec<u32> {
    (0..num_vertices as u32)
        .map(|v| label_partition(v, parts) as u32)
        .collect()
}

/// Edge-cut: vertices hashed to partitions, each edge stored at its
/// destination's owner.
pub fn edge_cut(graph: &Graph, num_partitions: usize) -> Result<PartitionAssignment> {
    if num_partitions == 0 {
        return Err(GraphError("need at least one partition".into()));
    }
    let vp = vertex_partitions(graph.num_vertices(), num_partitions);
    PartitionAssignment::build(CutKind::EdgeCut, graph, num_partitions, |_s, d| {
        vp[d as usize] as usize
    })
}

/// Random vertex-cut: each edge hashed by its (src, dst) pair.
pub fn vertex_cut(graph: &Graph, num_partitions: usize) -> Result<PartitionAssignment> {
    if num_partitions == 0 {
        return Err(GraphError("need at least one partition".into()));
    }
    PartitionAssignment::build(CutKind::VertexCut, graph, num_partitions, |s, d| {
        // A cheap pair mix (FNV-style) — per-edge, so no allocation.
        let h = (u64::from(s) ^ (u64::from(d).rotate_left(32)))
            .wrapping_mul(0x100000001b3)
            .rotate_left(17)
            .wrapping_mul(0x100000001b3);
        (h % num_partitions as u64) as usize
    })
}

/// PowerLyra hybrid-cut with the given in-degree `threshold` (the paper's
/// experiments use 200; the worked example of Figure 11 uses 4).
pub fn hybrid_cut(
    graph: &Graph,
    num_partitions: usize,
    threshold: usize,
) -> Result<PartitionAssignment> {
    if num_partitions == 0 {
        return Err(GraphError("need at least one partition".into()));
    }
    let vp = vertex_partitions(graph.num_vertices(), num_partitions);
    PartitionAssignment::build(CutKind::HybridCut, graph, num_partitions, |s, d| {
        if graph.in_degree(d) >= threshold {
            // High-degree: spread in-edges by source.
            vp[s as usize] as usize
        } else {
            // Low-degree: the whole in-edge set follows the destination.
            vp[d as usize] as usize
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn test_graph() -> Graph {
        gen::chung_lu(800, 6400, 2.0, 17).unwrap()
    }

    #[test]
    fn all_cuts_are_true_partitions() {
        let g = test_graph();
        for asg in [
            edge_cut(&g, 8).unwrap(),
            vertex_cut(&g, 8).unwrap(),
            hybrid_cut(&g, 8, 50).unwrap(),
        ] {
            asg.validate_against(&g).unwrap();
            assert_eq!(asg.num_partitions, 8);
        }
    }

    #[test]
    fn hybrid_low_degree_edges_stay_with_destination() {
        let g = test_graph();
        let threshold = 50;
        let asg = hybrid_cut(&g, 8, threshold).unwrap();
        for (p, edges) in asg.edges.iter().enumerate() {
            for &(_, d) in edges {
                if g.in_degree(d) < threshold {
                    assert_eq!(label_partition(d, 8), p, "low-degree edge misplaced");
                }
            }
        }
    }

    #[test]
    fn hybrid_high_degree_edges_spread() {
        let g = test_graph();
        let asg = hybrid_cut(&g, 8, 50).unwrap();
        // Find a high-degree vertex and check its in-edges span partitions.
        let hot = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.in_degree(v))
            .unwrap();
        assert!(g.in_degree(hot) >= 50, "test graph lost its skew");
        let holding: std::collections::HashSet<usize> = asg
            .edges
            .iter()
            .enumerate()
            .filter(|(_, es)| es.iter().any(|&(_, d)| d == hot))
            .map(|(p, _)| p)
            .collect();
        assert!(holding.len() > 1, "hot vertex's in-edges on one partition");
    }

    #[test]
    fn replication_order_on_power_law_graphs() {
        // The Figure 14 rationale: hybrid-cut has the lowest replication
        // factor; edge-cut (hash) the worst mirror-driven communication on
        // power-law graphs comes out in replication * cut edges. At the
        // least, hybrid must beat random vertex-cut.
        let g = test_graph();
        let hybrid = hybrid_cut(&g, 16, 50).unwrap().replication_factor();
        let vertex = vertex_cut(&g, 16).unwrap().replication_factor();
        assert!(
            hybrid < vertex,
            "hybrid replication {hybrid} should beat vertex-cut {vertex}"
        );
    }

    #[test]
    fn edge_cut_balances_poorly_on_skewed_graphs() {
        // All in-edges of the hottest vertex land on one partition under
        // edge-cut, so its imbalance exceeds hybrid's.
        let g = gen::chung_lu(500, 10_000, 1.9, 23).unwrap();
        let e = edge_cut(&g, 8).unwrap().edge_imbalance();
        let h = hybrid_cut(&g, 8, 50).unwrap().edge_imbalance();
        assert!(e > h, "edge-cut imbalance {e} should exceed hybrid-cut {h}");
    }

    #[test]
    fn figure11_example_threshold4() {
        // The worked example: vertex 1 has indegree 4 -> high-degree at
        // threshold 4, its in-edges spread by source; vertices 2, 3 are
        // low-degree, their in-edges follow the destination.
        let g = Graph::from_edges(
            6,
            &[
                (2, 1),
                (3, 1),
                (4, 1),
                (5, 1),
                (1, 2),
                (3, 2),
                (1, 3),
                (2, 4),
            ],
        )
        .unwrap();
        let asg = hybrid_cut(&g, 3, 4).unwrap();
        asg.validate_against(&g).unwrap();
        // Low-degree vertex 2 (indegree 2): both in-edges on hash("2").
        let p2 = label_partition(2, 3);
        assert!(asg.edges[p2].contains(&(1, 2)));
        assert!(asg.edges[p2].contains(&(3, 2)));
        // High-degree vertex 1: in-edge (2,1) on hash("2"), (3,1) on
        // hash("3"), etc.
        for s in [2u32, 3, 4, 5] {
            let p = label_partition(s, 3);
            assert!(asg.edges[p].contains(&(s, 1)), "edge ({s},1) misplaced");
        }
    }

    #[test]
    fn degenerate_cases() {
        let g = test_graph();
        assert!(edge_cut(&g, 0).is_err());
        let one = hybrid_cut(&g, 1, 10).unwrap();
        assert_eq!(one.replication_factor(), 1.0);
        assert_eq!(one.mirror_count(), 0);
        let empty = Graph::from_edges(5, &[]).unwrap();
        let asg = hybrid_cut(&empty, 4, 2).unwrap();
        assert_eq!(asg.replication_factor(), 0.0);
        assert_eq!(asg.edge_imbalance(), 1.0);
    }

    #[test]
    fn masters_prefer_hash_partition() {
        let g = test_graph();
        let asg = hybrid_cut(&g, 8, 50).unwrap();
        for v in 0..g.num_vertices() as u32 {
            let m = asg.master[v as usize];
            let reps = &asg.replicas[v as usize];
            if reps.contains(&(label_partition(v, 8) as u32)) {
                assert_eq!(m as usize, label_partition(v, 8));
            } else if !reps.is_empty() {
                assert!(reps.contains(&m));
            }
        }
    }
}
