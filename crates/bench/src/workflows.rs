//! Shared PaPar workflow drivers used by several experiments: the
//! Figure 8 muBLASTP partitioning and the Figure 10 hybrid-cut, run from
//! their actual configuration documents.

use mublastp::dbformat::{BlastDb, IndexEntry};
use papar_config::InputConfig;
use papar_core::exec::{ExecOptions, WorkflowReport, WorkflowRunner};
use papar_core::plan::Planner;
use papar_mr::Cluster;
use papar_record::batch::{Batch, Dataset};
use papar_record::Record;
use powerlyra::Graph;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The Figure 4 InputData configuration, as shipped in `examples/configs`.
pub const BLAST_INPUT_CFG: &str = include_str!("../../../examples/configs/blast_db.xml");

/// The Figure 8 workflow, as shipped in `examples/configs`, with its
/// distribution policy replaced by `policy`, so the same document drives
/// both the "cyclic" and "block" variants of Section IV-B.
pub fn blast_workflow(policy: &str) -> String {
    const SHIPPED: &str = include_str!("../../../examples/configs/blast_partition.xml");
    SHIPPED.replace(
        r#"type="DistrPolicy" value="roundRobin""#,
        &format!(r#"type="DistrPolicy" value="{policy}""#),
    )
}

/// The Figure 5 InputData configuration, as shipped in `examples/configs`.
pub const EDGE_INPUT_CFG: &str = include_str!("../../../examples/configs/graph_edge.xml");

/// The performance variant of the edge-list configuration: SNAP vertex ids
/// are numeric, and declaring them `long` (which the configuration
/// language supports) spares the partitioner per-record string handling —
/// what a tuned deployment would do. Correctness tests keep the paper's
/// literal String variant.
pub const EDGE_INPUT_CFG_NUMERIC: &str = r#"
<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="long"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="long"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

/// The Figure 10 workflow, as shipped in `examples/configs`.
pub const HYBRID_WORKFLOW: &str = include_str!("../../../examples/configs/hybrid_cut.xml");

/// What one workflow run left behind, before any experiment-specific
/// decoding.
pub struct RawRun {
    /// Per-job stats plus sampling time.
    pub report: WorkflowReport,
    /// The workflow's output, one dataset per partition.
    pub output: Vec<Dataset>,
    /// Wall time of the input scatter.
    pub scatter_wall: Duration,
    /// Wall time of the engine run alone.
    pub run_wall: Duration,
}

/// The bind → runner → scatter → run → collect tail every experiment
/// shares. `args` are the launch arguments (path arguments are dataset
/// names here; nothing touches a disk except `checkpoint`, a run
/// directory and whether to resume from it); `records` is the plan's one
/// external input.
pub fn run_raw(
    planner: &Planner,
    args: &[(&str, String)],
    records: Vec<Record>,
    mut cluster: Cluster,
    options: ExecOptions,
    checkpoint: Option<(&Path, bool)>,
) -> RawRun {
    let args: HashMap<String, String> = args
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let mut runner = WorkflowRunner::with_options(planner.bind(&args).expect("bind"), options);
    if let Some((dir, resume)) = checkpoint {
        runner = runner.with_checkpoint(dir, resume, 0);
    }
    let (input, meta) = runner.plan().external_inputs[0].clone();
    let t0 = Instant::now();
    runner
        .scatter_input(
            &mut cluster,
            &input,
            Dataset::new(meta.schema, Batch::Flat(records)),
        )
        .expect("scatter");
    let scatter_wall = t0.elapsed();
    let t1 = Instant::now();
    let report = runner.run(&mut cluster).expect("run");
    let run_wall = t1.elapsed();
    let output = cluster
        .collect(&runner.plan().output_path)
        .expect("collect");
    RawRun {
        report,
        output,
        scatter_wall,
        run_wall,
    }
}

/// A planner over the Figure 8 documents with the given distribution
/// policy, and the launch arguments for `num_partitions` partitions.
pub fn blast_plan(policy: &str, num_partitions: usize) -> (Planner, [(&'static str, String); 3]) {
    (
        Planner::from_xml(&blast_workflow(policy), &[BLAST_INPUT_CFG]).expect("config"),
        [
            ("input_path", "/db/in".to_string()),
            ("output_path", "/db/out".to_string()),
            ("num_partitions", num_partitions.to_string()),
        ],
    )
}

/// Result of one PaPar BLAST partitioning run.
pub struct BlastRun {
    /// Per-job stats plus sampling time.
    pub report: WorkflowReport,
    /// The partitions (original pointers, pre-recalculation).
    pub partitions: Vec<Vec<IndexEntry>>,
    /// Max-over-nodes time to materialize the payload of the partitions
    /// each node owns (reducer `r` lives on node `r % nodes`).
    pub payload_time: Duration,
}

impl BlastRun {
    /// Total simulated partitioning time including payload materialization.
    pub fn total_time(&self) -> Duration {
        self.report.total_sim_time() + self.payload_time
    }
}

/// Run the PaPar BLAST partitioning workflow over a database on `nodes`
/// simulated nodes.
pub fn run_blast(
    db: &BlastDb,
    policy: &str,
    num_partitions: usize,
    nodes: usize,
    options: ExecOptions,
) -> BlastRun {
    run_blast_on(db, policy, num_partitions, Cluster::new(nodes), options)
}

/// Like [`run_blast`], but on a caller-built cluster — chaos mode hands in
/// one carrying a fault plan, replication, and a retry policy.
pub fn run_blast_on(
    db: &BlastDb,
    policy: &str,
    num_partitions: usize,
    cluster: Cluster,
    options: ExecOptions,
) -> BlastRun {
    let nodes = cluster.num_nodes();
    let (planner, args) = blast_plan(policy, num_partitions);
    let raw = run_raw(&planner, &args, db.index_records(), cluster, options, None);
    let report = raw.report;
    let partitions: Vec<Vec<IndexEntry>> = raw
        .output
        .into_iter()
        .map(|d| {
            d.batch
                .flatten()
                .iter()
                .map(|r| IndexEntry::from_record(r).expect("index entry"))
                .collect()
        })
        .collect();

    // Distributed payload materialization: node `n` extracts the payloads
    // of the partitions it hosts; the phase ends with the slowest node.
    let mut payload_time = Duration::ZERO;
    for node in 0..nodes {
        let t0 = Instant::now();
        for (rid, part) in partitions.iter().enumerate() {
            if rid % nodes == node {
                let sub = mublastp::recalc::extract_partition(db, part).expect("extract");
                std::hint::black_box(&sub);
            }
        }
        payload_time = payload_time.max(t0.elapsed());
    }

    BlastRun {
        report,
        partitions,
        payload_time,
    }
}

/// Result of one PaPar hybrid-cut run.
pub struct HybridRun {
    /// Per-job stats plus sampling time.
    pub report: WorkflowReport,
    /// The per-partition edge lists.
    pub partitions: Vec<Vec<(u32, u32)>>,
}

/// Run the PaPar hybrid-cut workflow over a graph on `nodes` simulated
/// nodes. The graph travels through the real text codec, like a SNAP file
/// would.
pub fn run_hybrid(
    graph: &Graph,
    num_partitions: usize,
    threshold: usize,
    nodes: usize,
    options: ExecOptions,
) -> HybridRun {
    let planner = Planner::from_xml(HYBRID_WORKFLOW, &[EDGE_INPUT_CFG_NUMERIC]).expect("config");
    let input_cfg = InputConfig::parse_str(EDGE_INPUT_CFG_NUMERIC).expect("config");
    let schema = papar_record::Schema::from_input_config(&input_cfg);
    let text = powerlyra::gen::to_snap_text(graph);
    let records = papar_record::codec::text::read(&input_cfg, &schema, &text).expect("parse");
    let raw = run_raw(
        &planner,
        &[
            ("input_file", "/g/in".to_string()),
            ("output_path", "/g/out".to_string()),
            ("num_partitions", num_partitions.to_string()),
            ("threshold", threshold.to_string()),
        ],
        records,
        Cluster::new(nodes),
        options,
        None,
    );
    let partitions: Vec<Vec<(u32, u32)>> = raw
        .output
        .into_iter()
        .map(|d| {
            d.batch
                .flatten()
                .iter()
                .map(|r| {
                    (
                        r.value(0).unwrap().as_i64().unwrap() as u32,
                        r.value(1).unwrap().as_i64().unwrap() as u32,
                    )
                })
                .collect()
        })
        .collect();
    HybridRun {
        report: raw.report,
        partitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mublastp::dbgen::DbSpec;

    #[test]
    fn blast_driver_runs_and_matches_baseline() {
        let db = DbSpec::env_nr_scaled(800, 3).generate();
        let run = run_blast(&db, "roundRobin", 4, 2, ExecOptions::default());
        let base =
            mublastp::baseline::partition(&db.index, 4, mublastp::baseline::BaselinePolicy::Cyclic);
        assert_eq!(run.partitions, base.partitions);
        assert!(run.total_time() > Duration::ZERO);
    }

    /// The policy replaces the shipped document's.
    #[test]
    fn blast_workflow_substitutes_its_policy() {
        let block = blast_workflow("block");
        assert!(block.contains(r#"value="block""#), "{block}");
        assert!(!block.contains("roundRobin"), "{block}");
    }

    #[test]
    fn hybrid_driver_covers_all_edges() {
        let g = powerlyra::gen::chung_lu(200, 1500, 2.1, 4).unwrap();
        let run = run_hybrid(&g, 4, 20, 2, ExecOptions::default());
        let total: usize = run.partitions.iter().map(Vec::len).sum();
        assert_eq!(total, g.num_edges());
    }
}
