//! Failure-injection tests: malformed configurations, corrupt data files,
//! and degenerate workloads must fail cleanly (descriptive errors, no
//! panics) or behave sensibly.

use papar::core::exec::{ExecOptions, WorkflowRunner};
use papar::core::plan::Planner;
use papar::mr::Cluster;
use papar::record::batch::{Batch, Dataset};
use papar::record::{rec, Schema};
use papar_config::{InputConfig, WorkflowConfig};
use std::collections::HashMap;
use std::sync::Arc;

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

fn sort_workflow(key: &str) -> String {
    format!(
        r#"
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
      <param name="key" type="KeyId" value="{key}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#
    )
}

fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn malformed_xml_reports_position_not_panic() {
    let bad = "<workflow id=\"w\">\n  <operators>\n    <operator id='x' operator=>\n";
    let err = WorkflowConfig::parse_str(bad).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("XML error"), "{msg}");
    assert!(msg.contains("3:"), "should point at line 3: {msg}");
}

#[test]
fn binary_codec_rejects_truncation_everywhere() {
    let cfg = InputConfig::parse_str(BLAST_INPUT_CFG).unwrap();
    let schema = Schema::from_input_config(&cfg);
    // Every truncation point of a 2-record file must error, never panic.
    let mut full = vec![0u8; 32];
    for i in 0..32u8 {
        full.push(i);
    }
    for cut in 0..full.len() {
        let r = papar::record::codec::binary::read(&cfg, &schema, &full[..cut]);
        if cut == 32 || cut == 48 || cut == 64 {
            assert!(r.is_ok(), "cut {cut} is record-aligned");
        } else {
            assert!(r.is_err(), "cut {cut} should fail");
        }
    }
}

#[test]
fn nonexistent_key_field_fails_at_bind_not_run() {
    let planner = Planner::from_xml(&sort_workflow("no_such_field"), &[BLAST_INPUT_CFG]).unwrap();
    let e = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "2"),
        ]))
        .unwrap_err();
    assert!(e.to_string().contains("no_such_field"), "{e}");
}

#[test]
fn zero_partitions_is_rejected_at_bind() {
    let planner = Planner::from_xml(&sort_workflow("seq_size"), &[BLAST_INPUT_CFG]).unwrap();
    let e = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "0"),
        ]))
        .unwrap_err();
    assert!(e.to_string().contains("positive"), "{e}");
    // Non-numeric partition counts too.
    assert!(planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "many"),
        ]))
        .is_err());
}

#[test]
fn empty_input_produces_empty_partitions() {
    let planner = Planner::from_xml(&sort_workflow("seq_size"), &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "4"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::new(plan);
    let mut cluster = Cluster::new(3);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(vec![])),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    // The sort→distribute pair fuses into one physical stage.
    assert_eq!(report.jobs.len(), 1);
    let parts = cluster.collect("/out").unwrap();
    assert_eq!(parts.len(), 4, "all partitions materialize even when empty");
    assert!(parts.iter().all(|p| p.batch.is_empty()));
}

#[test]
fn scattering_wrong_schema_or_name_is_rejected() {
    let planner = Planner::from_xml(&sort_workflow("seq_size"), &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "2"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::new(plan);
    let mut cluster = Cluster::new(2);
    // Wrong dataset name.
    let good_schema = runner.plan().external_inputs[0].1.schema.clone();
    let e = runner
        .scatter_input(
            &mut cluster,
            "/typo",
            Dataset::new(good_schema, Batch::Flat(vec![])),
        )
        .unwrap_err();
    assert!(e.to_string().contains("/typo"), "{e}");
    // Wrong schema.
    let bad_schema = Arc::new(Schema::new(vec![(
        "x",
        papar_config::input::FieldType::Integer,
    )]));
    let e2 = runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(bad_schema, Batch::Flat(vec![])),
        )
        .unwrap_err();
    assert!(e2.to_string().contains("schema"), "{e2}");
}

#[test]
fn running_without_scattered_input_completes_with_empty_output() {
    // A missing external input behaves like an empty HDFS directory: the
    // jobs run, producing empty partitions (the first job's reducers see
    // nothing, so nothing materializes downstream until distribute, which
    // creates its fragments from whatever arrives — nothing).
    let planner = Planner::from_xml(&sort_workflow("seq_size"), &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "2"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::new(plan);
    let mut cluster = Cluster::new(2);
    let report = runner.run(&mut cluster);
    assert!(report.is_ok());
}

#[test]
fn workflow_overwriting_a_dataset_is_rejected() {
    let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer" value="2"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/x"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" type="String" value="/tmp/x"/>
      <param name="outputPath" type="String" value="/tmp/x"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
  </operators>
</workflow>"#;
    let planner = Planner::from_xml(wf, &[BLAST_INPUT_CFG]).unwrap();
    let e = planner.bind(&args(&[("input_path", "/in")])).unwrap_err();
    assert!(e.to_string().contains("already exists"), "{e}");
}

#[test]
fn split_with_non_exhaustive_policy_fails_at_runtime_with_context() {
    let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPathList" type="StringList" value="/tmp/a,/tmp/b"/>
      <param name="key" type="KeyId" value="seq_size"/>
      <param name="policy" type="SplitPolicy" value="{&gt;, 100},{&gt;, 1000}"/>
    </operator>
  </operators>
</workflow>"#;
    let planner = Planner::from_xml(wf, &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner.bind(&args(&[("input_path", "/in")])).unwrap();
    let runner = WorkflowRunner::new(plan);
    let mut cluster = Cluster::new(2);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    // seq_size 50 matches neither "> 100" nor "> 1000".
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(vec![rec![0, 50, 0, 10]])),
        )
        .unwrap();
    let e = runner.run(&mut cluster).unwrap_err();
    assert!(e.to_string().contains("matches no condition"), "{e}");
}

#[test]
fn more_nodes_than_records_still_works() {
    let planner = Planner::from_xml(&sort_workflow("seq_size"), &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "3"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::new(plan);
    let mut cluster = Cluster::new(12);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(
                schema,
                Batch::Flat(vec![rec![0, 9, 0, 1], rec![16, 3, 1, 1]]),
            ),
        )
        .unwrap();
    runner.run(&mut cluster).unwrap();
    let parts = cluster.collect("/out").unwrap();
    assert_eq!(parts.len(), 3);
    let total: usize = parts.iter().map(|p| p.batch.record_count()).sum();
    assert_eq!(total, 2);
    // Sorted: seq_size 3 first.
    assert_eq!(parts[0].batch.clone().flatten()[0], rec![16, 3, 1, 1]);
}

#[test]
fn distributing_flat_entries_into_a_packed_output_fails_fused_or_not() {
    // `d` reads a packed and a flat dataset; it is not the last job, so
    // its output takes the first input's packed format, and the flat
    // records cannot be kept there.
    let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="p" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/in/p" format="pack"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="f" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/in/f"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="d" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/in/"/>
      <param name="outputPath" type="String" value="/tmp/d"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="2"/>
    </operator>
    <operator id="last" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/d"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="2"/>
    </operator>
  </operators>
</workflow>"#;
    let planner = Planner::from_xml(wf, &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[("input_path", "/in"), ("output_path", "/out")]))
        .unwrap();
    let errors: Vec<String> = [true, false]
        .into_iter()
        .map(|fuse| {
            let options = ExecOptions {
                fuse,
                ..Default::default()
            };
            let runner = WorkflowRunner::with_options(plan.clone(), options);
            let mut cluster = Cluster::new(2);
            let schema = runner.plan().external_inputs[0].1.schema.clone();
            let records = (0..8).map(|i| rec![i, i % 3, 0, 10]).collect();
            let input = Dataset::new(schema, Batch::Flat(records));
            runner.scatter_input(&mut cluster, "/in", input).unwrap();
            runner.run(&mut cluster).unwrap_err().to_string()
        })
        .collect();
    assert!(
        errors[0].contains("cannot keep flat entries in a packed output"),
        "{errors:?}"
    );
    assert_eq!(errors[0], errors[1]);
}
