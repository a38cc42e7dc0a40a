//! Soundness oracle for the interval interpreter: every counter an
//! actual run produces must fall inside the statically computed bounds,
//! across random inputs, cluster shapes, thread counts, and fusion
//! settings. (Debug builds additionally assert this inside the executor
//! after every stage; this test states the property through the public
//! API, so it also holds in release builds.)

use papar_core::bounds::{self, BoundsOptions, SourceBounds};
use papar_core::exec::{ExecOptions, WorkflowRunner};
use papar_core::physplan::lower;
use papar_core::plan::Planner;
use papar_mr::Cluster;
use papar_record::batch::{Batch, Dataset};
use papar_record::rec;
use proptest::prelude::*;
use std::collections::HashMap;

const BLAST_INPUT_CFG: &str = r#"
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;

const SORT_DISTR_WORKFLOW: &str = r#"
<workflow id="blast_partition" name="BLAST database partition">
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

/// Run `workflow` over `input` and check every stage's counters against
/// the intervals the interpreter derives from the exact input size.
fn assert_run_within_bounds(
    workflow: &str,
    input_cfg: &str,
    launch_args: &HashMap<String, String>,
    input: Dataset,
    nodes: usize,
    threads: usize,
    fuse: bool,
) -> Result<(), TestCaseError> {
    let planner = Planner::from_xml(workflow, &[input_cfg]).unwrap();
    let plan = planner.bind(launch_args).unwrap();
    let records = input.batch.record_count() as u64;
    let input_name = plan.external_inputs[0].0.clone();

    let phys = lower(&plan, nodes, fuse);
    let mut opts = BoundsOptions {
        num_nodes: nodes,
        sources: Default::default(),
    };
    opts.sources
        .insert(input_name.clone(), SourceBounds::exact(records));
    let static_bounds = bounds::compute(&plan, &phys, &opts);

    let runner = WorkflowRunner::with_options(
        plan,
        ExecOptions {
            threads: Some(threads),
            fuse,
            ..ExecOptions::default()
        },
    );
    let mut cluster = Cluster::new(nodes);
    runner
        .scatter_input(&mut cluster, &input_name, input)
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();

    prop_assert_eq!(report.jobs.len(), static_bounds.stages.len());
    for (stats, sb) in report.jobs.iter().zip(&static_bounds.stages) {
        prop_assert_eq!(&stats.name, &sb.id);
        if let Err(escape) = stats.counters_within(
            (sb.records_in.lo, sb.records_in.hi),
            (sb.pairs.lo, sb.pairs.hi),
            (sb.records_out.lo, sb.records_out.hi),
            sb.shuffle_bytes.hi,
        ) {
            prop_assert!(false, "stage '{}': {}", sb.id, escape);
        }
    }

    // The materialized output partitions obey the final stage's layout.
    let last = static_bounds.stages.last().unwrap();
    if let Some(parts) = &last.partitions {
        let observed = cluster.collect(&runner.plan().output_path).unwrap();
        prop_assert_eq!(observed.len(), parts.per_partition.len());
        for (p, (d, iv)) in observed.iter().zip(&parts.per_partition).enumerate() {
            let n = d.batch.record_count() as u64;
            prop_assert!(iv.contains(n), "partition {p}: {n} records outside {iv}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fig-8-shaped runs: random sizes, key skew, partition counts,
    /// cluster shapes, thread counts, fused and unfused.
    #[test]
    fn sort_distribute_counters_stay_within_bounds(
        keys in prop::collection::vec(0u32..50, 0..120),
        m in 1usize..7,
        nodes in 1usize..6,
        threads in 1usize..5,
        fuse in any::<bool>(),
    ) {
        let records: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| rec![i as i32, *k as i32, 0, 0])
            .collect();
        assert_run_within_bounds(
            SORT_DISTR_WORKFLOW,
            BLAST_INPUT_CFG,
            &args(&[
                ("input_path", "/data/env_nr"),
                ("output_path", "/data/parts"),
                ("num_partitions", &m.to_string()),
            ]),
            Dataset::new(
                planner_schema(SORT_DISTR_WORKFLOW, BLAST_INPUT_CFG, &[
                    ("input_path", "/data/env_nr"),
                    ("output_path", "/data/parts"),
                    ("num_partitions", "1"),
                ]),
                Batch::Flat(records),
            ),
            nodes,
            threads,
            fuse,
        )?;
    }

    /// Fig-10-shaped runs: random edge lists (value-routed distribute,
    /// packed intermediates, split branches).
    #[test]
    fn hybrid_cut_counters_stay_within_bounds(
        edges in prop::collection::vec((0u32..12, 0u32..12), 1..80),
        threshold in 1usize..8,
        m in 1usize..5,
        nodes in 1usize..5,
        threads in 1usize..5,
        fuse in any::<bool>(),
    ) {
        let records: Vec<_> = edges
            .iter()
            .map(|(a, b)| rec![format!("s{a}"), format!("v{b}")])
            .collect();
        assert_run_within_bounds(
            HYBRID_WORKFLOW,
            EDGE_INPUT_CFG,
            &args(&[
                ("input_file", "/data/edges"),
                ("output_path", "/data/parts"),
                ("num_partitions", &m.to_string()),
                ("threshold", &threshold.to_string()),
            ]),
            Dataset::new(
                planner_schema(HYBRID_WORKFLOW, EDGE_INPUT_CFG, &[
                    ("input_file", "/data/edges"),
                    ("output_path", "/data/parts"),
                    ("num_partitions", "1"),
                    ("threshold", "1"),
                ]),
                Batch::Flat(records),
            ),
            nodes,
            threads,
            fuse,
        )?;
    }
}

/// The external input's schema, read off a bound plan.
fn planner_schema(
    workflow: &str,
    input_cfg: &str,
    launch_args: &[(&str, &str)],
) -> std::sync::Arc<papar_record::schema::Schema> {
    let planner = Planner::from_xml(workflow, &[input_cfg]).unwrap();
    let plan = planner.bind(&args(launch_args)).unwrap();
    plan.external_inputs[0].1.schema.clone()
}
