//! Fusion transparency: the physical planner's rewrites (sort→distribute
//! fusion, group→split fusion, dead-intermediate streaming) are pure
//! performance transformations. Partition bytes must be identical with
//! and without fusion, across thread counts, and under injected faults —
//! only job counts and shuffle traffic may change.

use mublastp::dbgen::DbSpec;
use papar::core::exec::{ExecOptions, WorkflowReport, WorkflowRunner};
use papar::core::plan::Planner;
use papar::mr::{Cluster, Fault, FaultPlan, RetryPolicy, TaskPhase};
use papar::record::batch::{Batch, Dataset};
use papar::record::wire;
use std::collections::HashMap;

const BLAST_INPUT_CFG: &str = r#"
<input id="blast_db" name="n">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;

const EDGE_INPUT_CFG: &str = r#"
<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

/// Paper Figure 8: sort by sequence size, deal round-robin.
const BLAST_WORKFLOW: &str = r#"
<workflow id="blast_partition" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;

/// Paper Figure 10: group by in-vertex, split at the degree threshold,
/// distribute with the hybrid vertex-cut.
const HYBRID_WORKFLOW: &str = r#"
<workflow id="hybrid_cut" name="Hybrid-cut">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
    <param name="output_path" type="hdfs" format="graph_edge"/>
    <param name="num_partitions" type="integer"/>
    <param name="threshold" type="integer"/>
  </arguments>
  <operators>
    <operator id="group" operator="group">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="/tmp/group" format="pack"/>
      <param name="key" type="KeyId" value="vertex_b"/>
      <addon operator="count" key="vertex_b" attr="indegree"/>
    </operator>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$group.outputPath"/>
      <param name="outputPathList" type="StringList"
             value="/tmp/split/high_degree,/tmp/split/low_degree"
             format="unpack,orig"/>
      <param name="key" type="KeyId" value="$group.$indegree"/>
      <param name="policy" type="SplitPolicy" value="{&gt;=, $threshold},{&lt;,$threshold}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/split/"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="policy" type="distrPolicy" value="graphVertexCut"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;

fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn options(fuse: bool, threads: usize) -> ExecOptions {
    ExecOptions {
        fuse,
        threads: Some(threads),
        ..ExecOptions::default()
    }
}

fn partition_bytes(cluster: &Cluster, name: &str) -> Vec<Vec<u8>> {
    cluster
        .collect(name)
        .unwrap()
        .into_iter()
        .map(|d| {
            let mut buf = Vec::new();
            wire::encode_batch(&d.batch, &d.schema, &mut buf).unwrap();
            buf
        })
        .collect()
}

/// Fig 8 sequences below the rank shuffle's rule for 4 partitions of
/// their ≈3,000-key span: the fused stage runs the sort, then the
/// distribute.
const FALLBACK: usize = 300;

/// Fig 8 sequences at which 4 partitions × the key span fit the rows: the
/// fused stage is one shuffle by global rank.
const RANKED: usize = 16_000;

fn run_blast(
    mut cluster: Cluster,
    options: ExecOptions,
    sequences: usize,
) -> (Vec<Vec<u8>>, WorkflowReport) {
    let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "4"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::with_options(plan, options);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let db = DbSpec::env_nr_scaled(sequences, 7).generate();
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(db.index_records())),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    (partition_bytes(&cluster, "/out"), report)
}

fn run_hybrid(mut cluster: Cluster, options: ExecOptions) -> (Vec<Vec<u8>>, WorkflowReport) {
    let planner = Planner::from_xml(HYBRID_WORKFLOW, &[EDGE_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_file", "/g/in"),
            ("output_path", "/g/out"),
            ("num_partitions", "4"),
            ("threshold", "10"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::with_options(plan, options);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let graph = powerlyra::gen::chung_lu(120, 900, 2.1, 11).unwrap();
    let cfg = papar_config::InputConfig::parse_str(EDGE_INPUT_CFG).unwrap();
    let text = powerlyra::gen::to_snap_text(&graph);
    let records = papar::record::codec::text::read(&cfg, &schema, &text).unwrap();
    runner
        .scatter_input(
            &mut cluster,
            "/g/in",
            Dataset::new(schema, Batch::Flat(records)),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    (partition_bytes(&cluster, "/g/out"), report)
}

/// A report's summed bytes shuffled and `shuffle_lo`.
fn shuffled(report: &WorkflowReport) -> (u64, u64) {
    let jobs = report.jobs.iter();
    (jobs.clone()).fold((0, 0), |(bytes, lo), j| {
        (bytes + j.exchange.remote_bytes, lo + j.shuffle_lo)
    })
}

/// A report's recovery log, as `papar run` prints it.
fn recovery_log(report: &WorkflowReport) -> Vec<String> {
    report
        .recovery_events
        .iter()
        .map(|e| e.to_string())
        .collect()
}

/// A fault plan exercising both phases of the sort plus the exchange; job
/// slot 1 is the distribute's: the rank shuffle runs no job there, so its
/// fault is inert, not misdelivered, and the fallback runs the distribute
/// there, so its fault fires as it does without fusion.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(vec![
        Fault::NodeCrash {
            node: 1,
            job: 0,
            phase: TaskPhase::Map,
        },
        Fault::NodeCrash {
            node: 2,
            job: 0,
            phase: TaskPhase::Reduce,
        },
        Fault::ExchangeDrop {
            from: 0,
            to: 2,
            job: 0,
        },
        Fault::NodeCrash {
            node: 0,
            job: 1,
            phase: TaskPhase::Map,
        },
    ])
}

fn chaos_cluster(nodes: usize, threads: usize) -> Cluster {
    Cluster::try_new(nodes)
        .unwrap()
        .with_threads(threads)
        .with_replication(1)
        .with_fault_plan(chaos_plan())
        .with_retry(RetryPolicy::default())
}

/// Fused Fig 8 writes what `--no-fuse` writes in one stage. The rank
/// shuffle moves fewer bytes than the two shuffles it replaces; the
/// fallback runs those two and moves exactly what they move.
#[test]
fn blast_fusion_is_byte_identical_and_halves_the_job_count() {
    for sequences in [FALLBACK, RANKED] {
        let (baseline, unfused) = run_blast(Cluster::new(3), options(false, 1), sequences);
        assert_eq!(unfused.jobs.len(), 2, "unfused: sort then distribute");
        for t in [1, 4] {
            let (out, fused) = run_blast(Cluster::new(3), options(true, t), sequences);
            let cell = format!("{sequences} sequences at {t} threads");
            assert_eq!(out, baseline, "fused output diverged: {cell}");
            assert_eq!(fused.jobs.len(), 1, "sort+distribute must fuse: {cell}");
            let (got, want) = (shuffled(&fused), shuffled(&unfused));
            if sequences == RANKED {
                assert!(got.0 < want.0, "one shuffle must move fewer bytes: {cell}");
            } else {
                assert_eq!(got, want, "the fallback moves what --no-fuse moves: {cell}");
            }
        }
    }
}

/// Fused blast — one shuffle by global rank — moves its lower bound (the
/// rows that leave their node and one segment header per remote (sender,
/// reducer) segment) plus one 13-byte run header per remote run, and
/// nothing else. Each of the 3 nodes holds one fragment of rows and sends
/// one run to each of the 4 partitions, each partition on one node, so the
/// remote runs are the partitions times the 2 other nodes.
#[test]
fn fused_blast_shuffles_its_lower_bound_plus_one_run_header_per_remote_run() {
    for t in [1, 4] {
        let (_, fused) = run_blast(Cluster::new(3), options(true, t), RANKED);
        let job = &fused.jobs[0];
        assert!(job.exchange.remote_messages > 0, "rows move between nodes");
        assert_eq!(
            job.exchange.remote_bytes - job.shuffle_lo,
            13 * 4 * 2,
            "{t} thread(s)"
        );
    }
}

#[test]
fn hybrid_fusion_is_byte_identical_and_drops_one_job() {
    let (baseline, unfused) = run_hybrid(Cluster::new(4), options(false, 1));
    assert_eq!(unfused.jobs.len(), 3, "unfused: group, split, distribute");
    for t in [1, 4] {
        let (out, fused) = run_hybrid(Cluster::new(4), options(true, t));
        assert_eq!(out, baseline, "fused output diverged at {t} threads");
        assert_eq!(fused.jobs.len(), 2, "group+split must fuse");
    }
}

/// Under the same faults, fused and unfused Fig 8 recover to the
/// fault-free partitions. The faults addressed to the sort's slot fire
/// both ways; the one addressed to the distribute's slot is inert under
/// the rank shuffle and, under the fallback, fires and recovers exactly as
/// it does without fusion.
#[test]
fn fused_and_unfused_recover_identically_under_faults() {
    for sequences in [FALLBACK, RANKED] {
        let (fault_free, _) = run_blast(Cluster::new(3), options(true, 1), sequences);
        for t in [1, 4] {
            let (fused, fused_report) = run_blast(chaos_cluster(3, t), options(true, t), sequences);
            let (unfused, unfused_report) =
                run_blast(chaos_cluster(3, t), options(false, t), sequences);
            let cell = format!("{sequences} sequences at {t} threads");
            assert_eq!(fused, fault_free, "fused recovery diverged: {cell}");
            assert_eq!(unfused, fault_free, "unfused recovery diverged: {cell}");
            assert!(
                fused_report.faults_injected() >= 3,
                "job-0 faults must fire: {cell}"
            );
            if sequences == RANKED {
                assert!(
                    unfused_report.faults_injected() > fused_report.faults_injected(),
                    "the elided slot's fault must be inert under the rank shuffle: {cell}"
                );
            } else {
                assert_eq!(
                    recovery_log(&fused_report),
                    recovery_log(&unfused_report),
                    "the fallback must recover as --no-fuse does: {cell}"
                );
                let recovered = |r: &WorkflowReport| {
                    let total = r.total_recovery();
                    (
                        r.faults_injected(),
                        total.total_bytes(),
                        total.total_messages(),
                    )
                };
                assert_eq!(
                    recovered(&fused_report),
                    recovered(&unfused_report),
                    "{cell}"
                );
                assert_eq!(shuffled(&fused_report), shuffled(&unfused_report), "{cell}");
            }
        }
    }
}
