//! End-to-end tests: the paper's two workflow configurations planned and
//! executed on the simulated cluster, checked against the worked examples
//! in Figures 9 and 11.

use papar_core::exec::{ExecOptions, SamplingMode, WorkflowRunner};
use papar_core::plan::{Format, JobKind, Planner};
use papar_mr::Cluster;
use papar_record::batch::{Batch, Dataset};
use papar_record::{rec, Record};
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

/// Paper Figure 8 (with the original `ouputPath` typo preserved).
const BLAST_WORKFLOW: &str = r#"
<workflow id="blast_partition" name="BLAST database partition">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
    <param name="num_reducers" type="integer" value="3"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort" num_reducers="$num_reducers">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="ouputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.ouputPath"/>
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

/// Paper Figure 10 (input path reference normalized to the group job).
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

/// The 12 index entries of Figure 9's input column.
fn figure9_input() -> Vec<Record> {
    vec![
        rec![0, 94, 0, 74],
        rec![94, 192, 74, 89],
        rec![286, 99, 163, 109],
        rec![385, 91, 272, 107],
        rec![476, 90, 379, 111],
        rec![566, 51, 490, 120],
        rec![617, 72, 610, 118],
        rec![689, 94, 728, 71],
        rec![783, 64, 799, 91],
        rec![847, 99, 890, 113],
        rec![946, 95, 1003, 104],
        rec![1041, 79, 1107, 76],
    ]
}

fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn blast_plan_structure_matches_figure8() {
    let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/data/env_nr"),
            ("output_path", "/data/parts"),
            ("num_partitions", "3"),
        ]))
        .unwrap();
    assert_eq!(plan.jobs.len(), 2);
    assert_eq!(plan.jobs[0].id, "sort");
    assert_eq!(plan.jobs[0].inputs, vec!["/data/env_nr"]);
    assert_eq!(plan.jobs[0].output(), "/user/sort_output");
    assert_eq!(plan.jobs[0].num_reducers, Some(3));
    match &plan.jobs[0].kind {
        JobKind::Sort {
            key_idx,
            descending,
            ..
        } => {
            assert_eq!(*key_idx, 1); // seq_size
            assert!(!descending);
        }
        other => panic!("expected sort, got {other:?}"),
    }
    assert_eq!(plan.jobs[1].id, "distr");
    // `$sort.ouputPath` resolves through the figure's typo.
    assert_eq!(plan.jobs[1].inputs, vec!["/user/sort_output"]);
    assert_eq!(plan.output_path, "/data/parts");
    assert_eq!(plan.external_inputs.len(), 1);
    assert_eq!(plan.external_inputs[0].0, "/data/env_nr");
}

#[test]
fn blast_workflow_reproduces_figure9_partitions() {
    let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/data/env_nr"),
            ("output_path", "/data/parts"),
            ("num_partitions", "3"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::new(plan);
    let mut cluster = Cluster::new(3);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    runner
        .scatter_input(
            &mut cluster,
            "/data/env_nr",
            Dataset::new(schema, Batch::Flat(figure9_input())),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    // The sort and the distribute fuse into one physical MR job.
    assert_eq!(report.jobs.len(), 1);

    let parts = cluster.collect("/data/parts").unwrap();
    assert_eq!(parts.len(), 3);
    let as_tuples = |d: &Dataset| -> Vec<String> {
        d.batch
            .clone()
            .flatten()
            .iter()
            .map(Record::display_tuple)
            .collect()
    };
    // The exact partitions of Figure 9, steps (4)-(5).
    assert_eq!(
        as_tuples(&parts[0]),
        vec![
            "{566, 51, 490, 120}",
            "{1041, 79, 1107, 76}",
            "{0, 94, 0, 74}",
            "{286, 99, 163, 109}",
        ]
    );
    assert_eq!(
        as_tuples(&parts[1]),
        vec![
            "{783, 64, 799, 91}",
            "{476, 90, 379, 111}",
            "{689, 94, 728, 71}",
            "{847, 99, 890, 113}",
        ]
    );
    assert_eq!(
        as_tuples(&parts[2]),
        vec![
            "{617, 72, 610, 118}",
            "{385, 91, 272, 107}",
            "{946, 95, 1003, 104}",
            "{94, 192, 74, 89}",
        ]
    );
}

#[test]
fn blast_partitions_are_node_count_invariant() {
    let run = |nodes: usize| -> Vec<Vec<String>> {
        let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
        let plan = planner
            .bind(&args(&[
                ("input_path", "/data/env_nr"),
                ("output_path", "/data/parts"),
                ("num_partitions", "3"),
            ]))
            .unwrap();
        let runner = WorkflowRunner::new(plan);
        let mut cluster = Cluster::new(nodes);
        let schema = runner.plan().external_inputs[0].1.schema.clone();
        runner
            .scatter_input(
                &mut cluster,
                "/data/env_nr",
                Dataset::new(schema, Batch::Flat(figure9_input())),
            )
            .unwrap();
        runner.run(&mut cluster).unwrap();
        cluster
            .collect("/data/parts")
            .unwrap()
            .iter()
            .map(|d| {
                d.batch
                    .clone()
                    .flatten()
                    .iter()
                    .map(Record::display_tuple)
                    .collect()
            })
            .collect()
    };
    let a = run(1);
    for nodes in [2, 4, 7] {
        assert_eq!(a, run(nodes), "partitions changed at {nodes} nodes");
    }
}

/// Figure 11's example graph: vertex "1" has indegree 4 (high-degree at
/// threshold 4), everything else is low-degree.
fn figure11_edges() -> Vec<Record> {
    vec![
        rec!["2", "1"],
        rec!["3", "1"],
        rec!["4", "1"],
        rec!["5", "1"],
        rec!["1", "2"],
        rec!["3", "2"],
        rec!["1", "3"],
        rec!["2", "4"],
    ]
}

fn hybrid_runner(num_partitions: &str, threshold: &str) -> WorkflowRunner {
    hybrid_runner_with(num_partitions, threshold, ExecOptions::default())
}

fn hybrid_runner_with(
    num_partitions: &str,
    threshold: &str,
    options: ExecOptions,
) -> WorkflowRunner {
    let planner = Planner::from_xml(HYBRID_WORKFLOW, &[EDGE_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_file", "/data/edges"),
            ("output_path", "/data/parts"),
            ("num_partitions", num_partitions),
            ("threshold", threshold),
        ]))
        .unwrap();
    WorkflowRunner::with_options(plan, options)
}

#[test]
fn hybrid_plan_structure_matches_figure10() {
    let runner = hybrid_runner("3", "4");
    let plan = runner.plan();
    assert_eq!(plan.jobs.len(), 3);

    // Group: packs by vertex_b, adds indegree.
    match &plan.jobs[0].kind {
        JobKind::Group {
            key_idx, addons, ..
        } => {
            assert_eq!(*key_idx, 1);
            assert_eq!(addons.len(), 1);
            assert_eq!(addons[0].attr, "indegree");
        }
        other => panic!("expected group, got {other:?}"),
    }
    assert_eq!(plan.jobs[0].outputs[0].1.format, Format::Packed);
    // The group output schema gained the indegree attribute.
    assert_eq!(plan.jobs[0].outputs[0].1.schema.len(), 3);

    // Split: keyed by the group job's added attribute, two outputs with
    // formats unpack (flat) and orig (packed).
    match &plan.jobs[1].kind {
        JobKind::Split { key_idx, policy } => {
            assert_eq!(*key_idx, 2); // indegree
            assert_eq!(policy.arity(), 2);
        }
        other => panic!("expected split, got {other:?}"),
    }
    assert_eq!(plan.jobs[1].outputs[0].0, "/tmp/split/high_degree");
    assert_eq!(plan.jobs[1].outputs[0].1.format, Format::Flat);
    assert_eq!(plan.jobs[1].outputs[1].0, "/tmp/split/low_degree");
    assert_eq!(plan.jobs[1].outputs[1].1.format, Format::Packed);

    // Distribute: the directory input matched both split outputs.
    assert_eq!(
        plan.jobs[2].inputs,
        vec!["/tmp/split/high_degree", "/tmp/split/low_degree"]
    );
    match &plan.jobs[2].kind {
        JobKind::Distribute { final_schema, .. } => {
            // Final job projects back onto the 2-field edge format.
            assert_eq!(final_schema.as_ref().unwrap().len(), 2);
        }
        other => panic!("expected distribute, got {other:?}"),
    }
}

#[test]
fn hybrid_workflow_partitions_cover_all_edges_once() {
    let runner = hybrid_runner("3", "4");
    let mut cluster = Cluster::new(3);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    runner
        .scatter_input(
            &mut cluster,
            "/data/edges",
            Dataset::new(schema, Batch::Flat(figure11_edges())),
        )
        .unwrap();
    runner.run(&mut cluster).unwrap();

    let parts = cluster.collect("/data/parts").unwrap();
    assert_eq!(parts.len(), 3);
    let mut all: Vec<Record> = Vec::new();
    for p in &parts {
        // Output format is the 2-field edge format (indegree projected out).
        for r in p.batch.clone().flatten() {
            assert_eq!(r.arity(), 2);
            all.push(r);
        }
    }
    let mut expect = figure11_edges();
    expect.sort();
    all.sort();
    assert_eq!(all, expect, "every edge appears in exactly one partition");
}

#[test]
fn hybrid_low_degree_vertices_stay_together_high_degree_spread() {
    let runner = hybrid_runner("3", "4");
    let mut cluster = Cluster::new(2);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    runner
        .scatter_input(
            &mut cluster,
            "/data/edges",
            Dataset::new(schema, Batch::Flat(figure11_edges())),
        )
        .unwrap();
    runner.run(&mut cluster).unwrap();
    let parts = cluster.collect("/data/parts").unwrap();

    // For each low-degree in-vertex (2, 3, 4), all its in-edges must land
    // in a single partition (the hybrid-cut's low-cut rule).
    for v in ["2", "3", "4"] {
        let holders = parts
            .iter()
            .filter(|p| {
                p.batch
                    .clone()
                    .flatten()
                    .iter()
                    .any(|r| r.value(1).unwrap().as_str() == Some(v))
            })
            .count();
        assert_eq!(holders, 1, "low-degree vertex {v} split across partitions");
    }
    // The high-degree vertex "1" has 4 in-edges from sources 2..5; with 3
    // partitions and hash routing by source they must span >1 partition.
    let holders_of_1 = parts
        .iter()
        .filter(|p| {
            p.batch
                .clone()
                .flatten()
                .iter()
                .any(|r| r.value(1).unwrap().as_str() == Some("1"))
        })
        .count();
    assert!(
        holders_of_1 > 1,
        "high-degree vertex should spread across partitions"
    );
}

/// The intermediates leave the stores during the run, so their shapes
/// show in the report: the distribute job reads one flat entry per
/// high-degree edge (split's `unpack` output) and one packed entry per
/// low-degree vertex (its `orig` output), so its pair count changes with
/// the threshold exactly as the group's `indegree` annotation (1: 4,
/// 2: 2, 3: 1, 4: 1) routes the groups.
#[test]
fn intermediate_datasets_have_expected_shapes() {
    for (threshold, flat_edges, packed_groups) in [("2", 6, 2), ("4", 4, 3), ("5", 0, 4)] {
        let runner = hybrid_runner_with(
            "2",
            threshold,
            ExecOptions {
                fuse: false,
                ..ExecOptions::default()
            },
        );
        let mut cluster = Cluster::new(2);
        let schema = runner.plan().external_inputs[0].1.schema.clone();
        runner
            .scatter_input(
                &mut cluster,
                "/data/edges",
                Dataset::new(schema, Batch::Flat(figure11_edges())),
            )
            .unwrap();
        let report = runner.run(&mut cluster).unwrap();
        let [group, split, distr] = &report.jobs[..] else {
            panic!("unfused Figure 10 runs three jobs");
        };
        // Group: one pair per edge in, every edge out (packed by vertex).
        assert_eq!((group.pairs_shuffled, group.records_out), (8, 8));
        // Split: map-only, every edge routed to one branch.
        assert_eq!((split.records_in, split.records_out), (8, 8));
        assert_eq!(distr.records_in, 8, "threshold {threshold}");
        assert_eq!(
            distr.pairs_shuffled,
            flat_edges + packed_groups,
            "threshold {threshold}"
        );
    }
}

#[test]
fn unbound_and_extraneous_arguments_are_rejected() {
    let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
    // num_partitions missing.
    let e = planner
        .bind(&args(&[("input_path", "/a"), ("output_path", "/b")]))
        .unwrap_err();
    assert!(e.to_string().contains("num_partitions"), "{e}");
    // Unknown launch argument.
    let e2 = planner
        .bind(&args(&[
            ("input_path", "/a"),
            ("output_path", "/b"),
            ("num_partitions", "2"),
            ("bogus", "1"),
        ]))
        .unwrap_err();
    assert!(e2.to_string().contains("bogus"), "{e2}");
}

#[test]
fn missing_input_config_is_reported_at_bind_time() {
    let planner = Planner::from_xml(BLAST_WORKFLOW, &[]).unwrap();
    let e = planner
        .bind(&args(&[
            ("input_path", "/a"),
            ("output_path", "/b"),
            ("num_partitions", "2"),
        ]))
        .unwrap_err();
    assert!(e.to_string().contains("blast_db"), "{e}");
}

#[test]
fn bad_key_and_bad_policy_are_rejected() {
    let wf = BLAST_WORKFLOW.replace("seq_size", "no_such_field");
    let planner = Planner::from_xml(&wf, &[BLAST_INPUT_CFG]).unwrap();
    assert!(planner
        .bind(&args(&[
            ("input_path", "/a"),
            ("output_path", "/b"),
            ("num_partitions", "2"),
        ]))
        .is_err());

    let wf2 = BLAST_WORKFLOW.replace("roundRobin", "teleport");
    let planner2 = Planner::from_xml(&wf2, &[BLAST_INPUT_CFG]).unwrap();
    assert!(planner2
        .bind(&args(&[
            ("input_path", "/a"),
            ("output_path", "/b"),
            ("num_partitions", "2"),
        ]))
        .is_err());
}

#[test]
fn compression_option_reduces_shuffle_bytes_in_hybrid_cut() {
    let run = |compress: bool| -> u64 {
        // A bigger graph so packed traffic dominates: 40 in-vertices with
        // 8 in-edges each, threshold high enough that all stay packed.
        let mut edges = Vec::new();
        for v in 0..40 {
            for s in 0..8 {
                edges.push(rec![format!("s{s}"), format!("v{v}")]);
            }
        }
        let runner = {
            let planner = Planner::from_xml(HYBRID_WORKFLOW, &[EDGE_INPUT_CFG]).unwrap();
            let plan = planner
                .bind(&args(&[
                    ("input_file", "/data/edges"),
                    ("output_path", "/data/parts"),
                    // Three partitions on four nodes: partition p lives on
                    // node p, while the group job hash-placed groups mod 4,
                    // so the distribute shuffle actually crosses nodes.
                    ("num_partitions", "3"),
                    ("threshold", "100"),
                ]))
                .unwrap();
            WorkflowRunner::with_options(
                plan,
                ExecOptions {
                    compression: compress,
                    ..ExecOptions::default()
                },
            )
        };
        let mut cluster = Cluster::new(4);
        let schema = runner.plan().external_inputs[0].1.schema.clone();
        runner
            .scatter_input(
                &mut cluster,
                "/data/edges",
                Dataset::new(schema, Batch::Flat(edges)),
            )
            .unwrap();
        let report = runner.run(&mut cluster).unwrap();
        report.total_shuffled_bytes()
    };
    let plain = run(false);
    let compressed = run(true);
    assert!(
        compressed < plain,
        "compression should shrink the hybrid-cut shuffle: {compressed} >= {plain}"
    );
}

#[test]
fn compressed_run_produces_identical_partitions() {
    let collect = |compress: bool| -> Vec<Vec<String>> {
        let planner = Planner::from_xml(HYBRID_WORKFLOW, &[EDGE_INPUT_CFG]).unwrap();
        let plan = planner
            .bind(&args(&[
                ("input_file", "/data/edges"),
                ("output_path", "/data/parts"),
                ("num_partitions", "3"),
                ("threshold", "4"),
            ]))
            .unwrap();
        let runner = WorkflowRunner::with_options(
            plan,
            ExecOptions {
                compression: compress,
                ..ExecOptions::default()
            },
        );
        let mut cluster = Cluster::new(3);
        let schema = runner.plan().external_inputs[0].1.schema.clone();
        runner
            .scatter_input(
                &mut cluster,
                "/data/edges",
                Dataset::new(schema, Batch::Flat(figure11_edges())),
            )
            .unwrap();
        runner.run(&mut cluster).unwrap();
        cluster
            .collect("/data/parts")
            .unwrap()
            .iter()
            .map(|d| {
                d.batch
                    .clone()
                    .flatten()
                    .iter()
                    .map(Record::display_tuple)
                    .collect()
            })
            .collect()
    };
    assert_eq!(collect(false), collect(true));
}

#[test]
fn sampling_modes_affect_balance_not_content() {
    // 2000 heavily skewed keys: sampling from the first fragment only
    // mis-places the boundaries; distributed sampling balances reducers.
    let mut records = Vec::new();
    for i in 0..2000 {
        // First half small keys, second half large: a naive first-fragment
        // sample sees only small keys.
        let key = if i < 1000 { i % 10 } else { 1000 + i };
        records.push(rec![0, key, 0, 0]);
    }
    let run = |mode: SamplingMode| -> (Vec<Vec<String>>, u64) {
        let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
        let plan = planner
            .bind(&args(&[
                ("input_path", "/in"),
                ("output_path", "/out"),
                ("num_partitions", "4"),
            ]))
            .unwrap();
        let runner = WorkflowRunner::with_options(
            plan,
            ExecOptions {
                sampling: mode,
                // The sort job's reducer loads are read from its trace, so
                // it must run as a job of its own.
                fuse: false,
                trace: true,
                ..ExecOptions::default()
            },
        );
        let mut cluster = Cluster::new(4);
        let schema = runner.plan().external_inputs[0].1.schema.clone();
        runner
            .scatter_input(
                &mut cluster,
                "/in",
                Dataset::new(schema, Batch::Flat(records.clone())),
            )
            .unwrap();
        let report = runner.run(&mut cluster).unwrap();
        // The sort job's skew histogram: records per reducer.
        let trace = report.trace.expect("traced run");
        let sort = trace.jobs.iter().find(|j| j.name == "sort").unwrap();
        let imbalance = *sort.skew.as_ref().unwrap().records.iter().max().unwrap();
        let content = cluster
            .collect("/out")
            .unwrap()
            .iter()
            .map(|d| {
                d.batch
                    .clone()
                    .flatten()
                    .iter()
                    .map(Record::display_tuple)
                    .collect()
            })
            .collect();
        (content, imbalance)
    };
    // sort key is seq_start here? No: the workflow sorts by seq_size, field
    // 1 — put the skewed key there instead.
    let _ = &records;
    let (good_content, good_max) = run(SamplingMode::Distributed);
    let (naive_content, naive_max) = run(SamplingMode::FirstFragmentOnly);
    assert_eq!(good_content, naive_content, "content must not change");
    assert!(
        good_max < naive_max,
        "distributed sampling should balance reducers: {good_max} !< {naive_max}"
    );
}

/// A fused sort→distribute stage too small for the rank shuffle runs the
/// sort, then the distribute, and the sort's output leaves the cluster:
/// after a run on a replicated cluster that lost a node in each job's map
/// phase (restored from replicas, the second time with the sorted
/// fragments), no store — primaries or replicas — still holds the sort's
/// output, and the partitions equal the unfused two-job plan's.
#[test]
fn fused_stage_leaves_the_sorts_output_in_no_store_after_recovered_crashes() {
    use papar_mr::{Fault, FaultPlan, TaskPhase};
    let run = |fuse: bool| {
        let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
        let plan = planner
            .bind(&args(&[
                ("input_path", "/data/env_nr"),
                ("output_path", "/data/parts"),
                ("num_partitions", "3"),
            ]))
            .unwrap();
        let options = ExecOptions {
            fuse,
            ..ExecOptions::default()
        };
        let runner = WorkflowRunner::with_options(plan, options);
        let mut cluster = Cluster::new(3)
            .with_replication(1)
            .with_fault_plan(FaultPlan::new(vec![
                Fault::NodeCrash {
                    node: 1,
                    job: 0,
                    phase: TaskPhase::Map,
                },
                Fault::NodeCrash {
                    node: 2,
                    job: 1,
                    phase: TaskPhase::Map,
                },
            ]));
        let schema = runner.plan().external_inputs[0].1.schema.clone();
        runner
            .scatter_input(
                &mut cluster,
                "/data/env_nr",
                Dataset::new(schema, Batch::Flat(figure9_input())),
            )
            .unwrap();
        let report = runner.run(&mut cluster).unwrap();
        assert_eq!(report.faults_injected(), 2, "fuse {fuse}");
        (cluster, report.jobs.len())
    };
    let (fused, fused_jobs) = run(true);
    assert_eq!(fused_jobs, 1, "sort and distribute fuse into one stage");
    for node in 0..fused.num_nodes() {
        let store = fused.node(node);
        let ids = store.fragment_ids().into_iter().chain(store.replica_ids());
        for (name, ordinal) in ids {
            assert!(
                name != "/user/sort_output",
                "node {node} still holds {name}#{ordinal}"
            );
        }
    }
    let (unfused, unfused_jobs) = run(false);
    assert_eq!(unfused_jobs, 2);
    assert_eq!(
        fused.collect("/data/parts").unwrap(),
        unfused.collect("/data/parts").unwrap()
    );
}

/// One store's `(dataset, ordinal)` ids.
type Ids = Vec<(String, u32)>;

/// Every store's dataset names, primaries and replicas, per node.
fn store_ids(cluster: &Cluster) -> Vec<(Ids, Ids)> {
    (0..cluster.num_nodes())
        .map(|n| {
            (
                cluster.node(n).fragment_ids(),
                cluster.node(n).replica_ids(),
            )
        })
        .collect()
}

fn holds(cluster: &Cluster, name: &str) -> bool {
    store_ids(cluster)
        .iter()
        .any(|(p, r)| p.iter().chain(r).any(|(n, _)| n == name))
}

/// Whether every store, primaries and replicas, holds `name` alone.
fn holds_only(cluster: &Cluster, name: &str) -> bool {
    store_ids(cluster)
        .iter()
        .all(|(p, r)| p.iter().chain(r).all(|(n, _)| n == name))
}

/// Run a bound plan over `input` on a 3-node cluster with one replica
/// per fragment; the cluster and the report come back.
fn run_replicated(
    runner: &WorkflowRunner,
    input: Vec<Record>,
) -> (Cluster, papar_core::exec::WorkflowReport) {
    let mut cluster = Cluster::new(3).with_replication(1);
    let (name, meta) = runner.plan().external_inputs[0].clone();
    runner
        .scatter_input(
            &mut cluster,
            &name,
            Dataset::new(meta.schema, Batch::Flat(input)),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    (cluster, report)
}

/// Every dataset but the workflow output is resident only until the map
/// barrier of its last reader: after a run of Figure 8 or Figure 10, fused
/// or not, the stores — primaries and replicas — hold only the output.
#[test]
fn only_the_output_remains_after_the_run() {
    for fuse in [true, false] {
        let options = ExecOptions {
            fuse,
            ..ExecOptions::default()
        };
        let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
        let plan = planner
            .bind(&args(&[
                ("input_path", "/data/env_nr"),
                ("output_path", "/data/parts"),
                ("num_partitions", "3"),
            ]))
            .unwrap();
        let runner = WorkflowRunner::with_options(plan, options);
        let (cluster, report) = run_replicated(&runner, figure9_input());
        assert!(holds_only(&cluster, "/data/parts"), "fig 8 fuse={fuse}");
        assert_eq!(cluster.collect("/data/parts").unwrap().len(), 3);
        assert_eq!(report.jobs[0].records_out, 12, "the sort's output");

        let runner = hybrid_runner_with("3", "4", options);
        let (cluster, report) = run_replicated(&runner, figure11_edges());
        assert!(holds_only(&cluster, "/data/parts"), "fig 10 fuse={fuse}");
        assert_eq!(cluster.collect("/data/parts").unwrap().len(), 3);
        assert_eq!(report.jobs[0].records_out, 8, "the group's output");
    }
}

/// Two jobs read the input: it survives the first job and leaves at the
/// second's map barrier, and the partitions equal Figure 9's.
#[test]
fn input_with_two_readers_is_kept_until_the_second() {
    const TWO_READERS: &str = r#"
<workflow id="two_readers" name="two readers">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort" num_reducers="3">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="by_start" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/by_start"/>
      <param name="key" type="KeyId" value="seq_start"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;
    let bind = |workflow: &str| {
        Planner::from_xml(workflow, &[BLAST_INPUT_CFG])
            .unwrap()
            .bind(&args(&[
                ("input_path", "/data/env_nr"),
                ("output_path", "/data/parts"),
                ("num_partitions", "3"),
            ]))
            .unwrap()
    };
    let runner = WorkflowRunner::new(bind(TWO_READERS));
    let (cluster, report) = run_replicated(&runner, figure9_input());
    assert_eq!(report.jobs.len(), 3, "nothing fuses: the sort has a gap");
    assert_eq!(report.jobs[0].records_in, 12);
    assert_eq!(
        report.jobs[1].records_in, 12,
        "the second reader must still see the whole input"
    );
    assert!(!holds(&cluster, "/data/env_nr"));
    assert!(!holds(&cluster, "/user/by_start"), "nothing reads it");
    assert_eq!(report.jobs[1].records_out, 12);
    let (fig8, _) = run_replicated(&WorkflowRunner::new(bind(BLAST_WORKFLOW)), figure9_input());
    assert_eq!(
        cluster.collect("/data/parts").unwrap(),
        fig8.collect("/data/parts").unwrap()
    );
}

/// A checkpointed run resumed after each completed stage skips the
/// stages that last read the input and the intermediates, and drops them
/// there: its stores then hold exactly what a cold run's do, the output
/// alone — Figure 8 unfused, Figure 10 fused and unfused.
#[test]
fn resumed_run_holds_the_cold_runs_stores() {
    use papar_mr::{Fault, FaultPlan, RetryPolicy, TaskPhase};
    let dir = std::env::temp_dir().join(format!("papar-liveness-resume-{}", std::process::id()));
    let bind = |hybrid: bool, fuse: bool| {
        let options = ExecOptions {
            fuse,
            ..ExecOptions::default()
        };
        if hybrid {
            return hybrid_runner_with("3", "4", options);
        }
        let plan = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG])
            .unwrap()
            .bind(&args(&[
                ("input_path", "/data/env_nr"),
                ("output_path", "/data/parts"),
                ("num_partitions", "3"),
            ]))
            .unwrap();
        WorkflowRunner::with_options(plan, options)
    };
    // (Figure 10?, fused, the job whose map task crashes on every attempt,
    // stages committed before it)
    for (hybrid, fuse, job, committed) in [
        (false, false, 1, 1),
        (true, false, 1, 1),
        (true, false, 2, 2),
        (true, true, 2, 1),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let runner = |resume: bool| bind(hybrid, fuse).with_checkpoint(&dir, resume, 0);
        let input = || {
            if hybrid {
                figure11_edges()
            } else {
                figure9_input()
            }
        };
        let scatter = |runner: &WorkflowRunner, cluster: &mut Cluster| {
            let (name, meta) = runner.plan().external_inputs[0].clone();
            runner
                .scatter_input(
                    cluster,
                    &name,
                    Dataset::new(meta.schema, Batch::Flat(input())),
                )
                .unwrap();
        };
        let crashes = (0..2)
            .map(|_| Fault::NodeCrash {
                node: 0,
                job,
                phase: TaskPhase::Map,
            })
            .collect();
        let mut broken = Cluster::new(3)
            .with_replication(1)
            .with_fault_plan(FaultPlan::new(crashes))
            .with_retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            });
        let first = runner(false);
        scatter(&first, &mut broken);
        assert!(first.run(&mut broken).is_err());

        let resumed_runner = runner(true);
        let mut resumed = Cluster::new(3).with_replication(1);
        scatter(&resumed_runner, &mut resumed);
        let report = resumed_runner.run(&mut resumed).unwrap();
        let case = format!("hybrid={hybrid} fuse={fuse} job={job}");
        assert_eq!(report.stages_resumed, committed, "{case}");
        let _ = std::fs::remove_dir_all(&dir);

        let (cold, _) = run_replicated(&runner(false), input());
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(store_ids(&resumed), store_ids(&cold), "{case}");
        assert!(holds_only(&resumed, "/data/parts"), "{case}");
        assert_eq!(
            resumed.collect("/data/parts").unwrap(),
            cold.collect("/data/parts").unwrap(),
            "{case}"
        );
    }
}

/// A map-only split that reads the input last releases it at the end of
/// its stage, like an engine job does at its map barrier.
#[test]
fn split_as_last_reader_releases_the_input() {
    const SPLIT_FIRST: &str = r#"
<workflow id="split_first" name="split first">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPathList" type="StringList"
             value="/tmp/split/long,/tmp/split/short" format="orig,orig"/>
      <param name="key" type="KeyId" value="seq_size"/>
      <param name="policy" type="SplitPolicy" value="{&gt;=, 90},{&lt;, 90}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/split/"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;
    let plan = Planner::from_xml(SPLIT_FIRST, &[BLAST_INPUT_CFG])
        .unwrap()
        .bind(&args(&[
            ("input_path", "/data/env_nr"),
            ("output_path", "/data/parts"),
            ("num_partitions", "3"),
        ]))
        .unwrap();
    let (cluster, report) = run_replicated(&WorkflowRunner::new(plan), figure9_input());
    assert_eq!(report.jobs.len(), 2);
    assert!(!holds(&cluster, "/data/env_nr"));
    // The round-robin deal over `/tmp/split/long` then `/tmp/split/short`:
    // entry `g` of that order is entry `g / 3` of partition `g % 3`, so
    // the output shows what each split branch held.
    let parts: Vec<Vec<Record>> = cluster
        .collect("/data/parts")
        .unwrap()
        .into_iter()
        .map(|p| p.batch.flatten())
        .collect();
    let dealt: Vec<i64> = (0..12)
        .map(|g| parts[g % 3][g / 3].value(1).unwrap().as_i64().unwrap())
        .collect();
    assert!(dealt[..8].iter().all(|&size| size >= 90), "{dealt:?}");
    assert!(dealt[8..].iter().all(|&size| size < 90), "{dealt:?}");
}

/// The plan fingerprint keys the daemon's plan cache and prefixes every
/// checkpoint's resume fingerprint, so a checkpoint written by an earlier
/// build resumes only while these values hold. They are Fig 8 and Fig 10
/// as shipped in `examples/configs`, on 4 nodes, fused and `--no-fuse`.
#[test]
fn plan_fingerprints_of_the_paper_workflows_are_pinned() {
    use papar_core::exec::plan_fingerprint_with;
    let configs = [
        (
            include_str!("../../../examples/configs/blast_partition.xml"),
            include_str!("../../../examples/configs/blast_db.xml"),
            args(&[
                ("input_path", "/in"),
                ("output_path", "/out"),
                ("num_partitions", "8"),
            ]),
            [0x28682f51e5887d37, 0x3f68714e626e274f],
        ),
        (
            include_str!("../../../examples/configs/hybrid_cut.xml"),
            include_str!("../../../examples/configs/graph_edge.xml"),
            args(&[
                ("input_file", "/in"),
                ("output_path", "/out"),
                ("num_partitions", "8"),
                ("threshold", "3"),
            ]),
            [0xcbc2ee15487aa78e, 0x72164c821519142b],
        ),
    ];
    for (workflow, input, args, pinned) in configs {
        let plan = Planner::from_xml(workflow, &[input])
            .unwrap()
            .bind(&args)
            .unwrap();
        for (fuse, expected) in [true, false].into_iter().zip(pinned) {
            let phys = papar_core::physplan::lower(&plan, 4, fuse);
            let options = ExecOptions {
                fuse,
                ..ExecOptions::default()
            };
            assert_eq!(
                plan_fingerprint_with(&plan, &phys, 4, &options),
                expected,
                "{} fuse={fuse}",
                plan.id
            );
        }
    }
}

/// A round-robin distribute of an edge list on 3 nodes into 4 partitions.
const EDGE_DISTRIBUTE: &str = r#"
<workflow id="edge_distribute" name="Round-robin edges">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
    <param name="output_path" type="hdfs" format="graph_edge"/>
  </arguments>
  <operators>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>
  </operators>
</workflow>"#;

/// The shuffle moves exactly the edges' row bytes: an edge `(a, b)` of
/// short ids is `len(a) + len(b) + 2` bytes, one length byte per id.
/// Record `i` of the input lies on the node whose contiguous block holds
/// it and goes to partition `i % 4`, whose reducer runs on node
/// `(i % 4) % 3`; every (sender, reducer) segment that leaves its node
/// adds an 8-byte segment header and a 13-byte run header (each node
/// holds one fragment, so a segment is one run).
#[test]
fn shuffled_bytes_of_an_edge_list_are_its_row_bytes_plus_headers() {
    let (nodes, partitions) = (3, 4);
    let edges: Vec<(String, String)> = (0..40)
        .map(|i| (format!("{}", i * 7 % 13), format!("v{}", i * i % 101)))
        .collect();
    let planner = Planner::from_xml(EDGE_DISTRIBUTE, &[EDGE_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_file", "/data/edges"),
            ("output_path", "/data/parts"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::new(plan);
    let mut cluster = Cluster::new(nodes);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let records = edges.iter().map(|(a, b)| rec![a.as_str(), b.as_str()]);
    let input = Dataset::new(schema, Batch::Flat(records.collect()));
    runner
        .scatter_input(&mut cluster, "/data/edges", input)
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();

    let mut pair_bytes = 0;
    let mut segments = std::collections::BTreeSet::new();
    let mut first = 0;
    let blocks = papar_record::batch::block_sizes(edges.len(), nodes);
    for (from, size) in blocks.enumerate() {
        for (i, (a, b)) in edges.iter().enumerate().skip(first).take(size) {
            let partition = i % partitions;
            if partition % nodes != from {
                pair_bytes += (a.len() + b.len() + 2) as u64;
                segments.insert((from, partition));
            }
        }
        first += size;
    }
    assert!(pair_bytes > 0 && !segments.is_empty());
    let want = pair_bytes + (8 + 13) * segments.len() as u64;
    assert_eq!(report.total_shuffled_bytes(), want);
}
