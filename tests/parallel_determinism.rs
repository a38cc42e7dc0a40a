//! Thread-count determinism: the engine's contract is that the number of
//! OS threads it runs on is invisible in everything but wall-clock time.
//! Output partitions must be byte-identical across thread counts, with
//! and without fault injection, because fault decisions are pre-drawn per
//! phase and per-node results land in fixed slots rather than in
//! completion order.

use mublastp::dbgen::DbSpec;
use papar::core::exec::{ExecOptions, WorkflowRunner};
use papar::core::plan::Planner;
use papar::mr::{ChaosSpec, Cluster, Fault, FaultPlan, RecoveryStats, RetryPolicy};
use papar::record::batch::{Batch, Dataset};
use papar::record::wire;
use papar_mr::TaskPhase;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// Thread counts every assertion sweeps; 1 is the sequential reference.
const THREADS: &[usize] = &[1, 2, 4, 8];

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

const SORT_WORKFLOW: &str = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/sorted"/>
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

/// Run the blast workflow, returning the partitions as wire bytes plus
/// the total recovery byte count (which must also be thread-invariant).
fn run_blast(mut cluster: Cluster, records: usize) -> (Vec<Vec<u8>>, u64) {
    let planner = Planner::from_xml(SORT_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "4"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::new(plan);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let db = DbSpec::env_nr_scaled(records, 7).generate();
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(db.index_records())),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    (
        partition_bytes(&cluster, "/out"),
        report.total_recovery().total_bytes(),
    )
}

/// Run the hybrid-cut workflow, fused or not: the partitions as wire
/// bytes, plus the run's recovery accounting.
fn run_hybrid(mut cluster: Cluster, fuse: bool) -> (Vec<Vec<u8>>, RecoveryStats) {
    let planner = Planner::from_xml(HYBRID_WORKFLOW, &[EDGE_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_file", "/g/in"),
            ("output_path", "/g/out"),
            ("num_partitions", "4"),
            ("threshold", "10"),
        ]))
        .unwrap();
    let options = ExecOptions {
        fuse,
        ..ExecOptions::default()
    };
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
    (partition_bytes(&cluster, "/g/out"), report.total_recovery())
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

fn chaos_cluster(nodes: usize, threads: usize, plan: FaultPlan) -> Cluster {
    Cluster::try_new(nodes)
        .unwrap()
        .with_threads(threads)
        .with_replication(1)
        .with_fault_plan(plan)
        .with_retry(RetryPolicy::default())
}

#[test]
fn fault_free_blast_output_is_identical_across_thread_counts() {
    let (baseline, _) = run_blast(Cluster::new(3).with_threads(THREADS[0]), 300);
    for &t in &THREADS[1..] {
        let (out, _) = run_blast(Cluster::new(3).with_threads(t), 300);
        assert_eq!(out, baseline, "{t} threads diverged from sequential");
    }
}

#[test]
fn fault_free_hybrid_output_is_identical_across_thread_counts() {
    let (baseline, _) = run_hybrid(Cluster::new(4).with_threads(THREADS[0]), true);
    for &t in &THREADS[1..] {
        let (out, _) = run_hybrid(Cluster::new(4).with_threads(t), true);
        assert_eq!(out, baseline, "{t} threads diverged from sequential");
    }
}

#[test]
fn crash_recovery_is_identical_across_thread_counts() {
    // A fixed plan covering both phases of both jobs-with-faults.
    let plan = || {
        FaultPlan::new(vec![
            Fault::NodeCrash {
                node: 1,
                job: 0,
                phase: TaskPhase::Map,
            },
            Fault::NodeCrash {
                node: 2,
                job: 1,
                phase: TaskPhase::Reduce,
            },
            Fault::ExchangeDrop {
                from: 0,
                to: 2,
                job: 0,
            },
        ])
    };
    let (fault_free, _) = run_blast(Cluster::new(3).with_threads(1), 300);
    let (baseline, baseline_recovery) = run_blast(chaos_cluster(3, THREADS[0], plan()), 300);
    assert_eq!(baseline, fault_free, "recovery must restore the output");
    for &t in &THREADS[1..] {
        let (out, recovery) = run_blast(chaos_cluster(3, t, plan()), 300);
        assert_eq!(out, baseline, "{t} threads diverged under faults");
        assert_eq!(
            recovery, baseline_recovery,
            "{t} threads changed the recovery byte accounting"
        );
    }
    // The unfused hybrid cut, with a crash on its map-only split job
    // (job 1, between group and distribute) and one on the distribute.
    let split_plan = || {
        FaultPlan::new(vec![
            Fault::NodeCrash {
                node: 2,
                job: 1,
                phase: TaskPhase::Map,
            },
            Fault::NodeCrash {
                node: 0,
                job: 2,
                phase: TaskPhase::Map,
            },
        ])
    };
    let (fault_free, _) = run_hybrid(Cluster::new(4).with_threads(1), false);
    let (baseline, baseline_recovery) =
        run_hybrid(chaos_cluster(4, THREADS[0], split_plan()), false);
    assert_eq!(baseline, fault_free, "recovery must restore the output");
    assert_eq!(baseline_recovery.faults_injected, 2);
    for &t in &THREADS[1..] {
        let (out, recovery) = run_hybrid(chaos_cluster(4, t, split_plan()), false);
        assert_eq!(out, baseline, "{t} threads diverged under faults");
        // Everything but the measured re-execution time, and what the
        // clock charges for it, is deterministic.
        let deterministic = |r: &RecoveryStats| RecoveryStats {
            reexec_task_time: Duration::ZERO,
            ..r.clone()
        };
        assert_eq!(
            deterministic(&recovery),
            deterministic(&baseline_recovery),
            "{t} threads changed the recovery accounting"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any fault seed, every thread count recovers to partitions
    /// byte-identical to the single-threaded fault-free run, with the
    /// same recovery byte accounting as single-threaded chaos.
    #[test]
    fn any_seed_is_thread_count_invariant(seed in any::<u64>()) {
        let (fault_free, _) = run_blast(Cluster::new(3).with_threads(1), 150);
        let spec = ChaosSpec::parse("crash=1,drop=1,corrupt=1").unwrap();
        let mut baseline: Option<(Vec<Vec<u8>>, u64)> = None;
        for &t in THREADS {
            let cluster = chaos_cluster(3, t, spec.realize(seed, 3, 2));
            let (out, recovery) = run_blast(cluster, 150);
            prop_assert_eq!(&out, &fault_free,
                "seed {} with {} threads diverged from fault-free", seed, t);
            match &baseline {
                None => baseline = Some((out, recovery)),
                Some((_, base_recovery)) => prop_assert_eq!(
                    recovery, *base_recovery,
                    "seed {} with {} threads changed recovery accounting", seed, t),
            }
        }
    }
}
