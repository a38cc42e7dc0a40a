//! End-to-end semantics of the remaining Table I surface: the descending
//! sort flag, add-ons attached to sort, block distribution after sorting,
//! and reducer-count overrides.

use papar::core::exec::{ExecOptions, RunNote, WorkflowReport, WorkflowRunner};
use papar::core::plan::Planner;
use papar::mr::Cluster;
use papar::record::batch::{Batch, Dataset};
use papar::record::{rec, Record};
use std::collections::HashMap;

const INPUT_CFG: &str = r#"
<input id="scores" name="n">
  <input_format>text</input_format>
  <element>
    <value name="name" type="String"/>
    <delimiter value=","/>
    <value name="score" type="integer"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn run_workflow(wf: &str, records: Vec<Record>, nodes: usize) -> (WorkflowRunner, Cluster) {
    run_workflow_opts(wf, records, nodes, ExecOptions::default()).0
}

fn run_workflow_opts(
    wf: &str,
    records: Vec<Record>,
    nodes: usize,
    options: ExecOptions,
) -> ((WorkflowRunner, Cluster), WorkflowReport) {
    let planner = Planner::from_xml(wf, &[INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[("input_path", "/in"), ("output_path", "/out")]))
        .unwrap();
    let runner = WorkflowRunner::with_options(plan, options);
    let mut cluster = Cluster::new(nodes);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(records)),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    ((runner, cluster), report)
}

fn scores(ds: &Dataset) -> Vec<i64> {
    ds.batch
        .clone()
        .flatten()
        .iter()
        .map(|r| r.value(1).unwrap().as_i64().unwrap())
        .collect()
}

#[test]
fn descending_sort_flag_reverses_global_order() {
    // Table I: flag 1 = descending.
    let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="scores"/>
    <param name="output_path" type="hdfs" format="scores"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort" num_reducers="3">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="key" type="KeyId" value="score"/>
      <param name="flag" type="integer" value="1"/>
    </operator>
  </operators>
</workflow>"#;
    let records: Vec<Record> = (0..40)
        .map(|i| rec![format!("p{i}"), (i * 7) % 23])
        .collect();
    let (runner, cluster) = run_workflow(wf, records, 3);
    let all: Vec<i64> = cluster
        .collect(&runner.plan().output_path)
        .unwrap()
        .iter()
        .flat_map(scores)
        .collect();
    assert_eq!(all.len(), 40);
    assert!(
        all.windows(2).all(|w| w[0] >= w[1]),
        "concatenated reducer outputs must be globally descending: {all:?}"
    );
}

#[test]
fn ascending_flag_spellings_agree() {
    for flag in ["-1", "asc", "ascending"] {
        let wf = format!(
            r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="scores"/>
    <param name="output_path" type="hdfs" format="scores"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="key" type="KeyId" value="score"/>
      <param name="flag" type="integer" value="{flag}"/>
    </operator>
  </operators>
</workflow>"#
        );
        let records = vec![rec!["a", 3], rec!["b", 1], rec!["c", 2]];
        let (runner, cluster) = run_workflow(&wf, records, 2);
        let all: Vec<i64> = cluster
            .collect(&runner.plan().output_path)
            .unwrap()
            .iter()
            .flat_map(scores)
            .collect();
        assert_eq!(all, vec![1, 2, 3], "flag {flag}");
    }
}

#[test]
fn sort_addons_annotate_key_groups() {
    // A count add-on on the sort operator annotates each record with its
    // key-group size (sort and group share the reduce-side add-on path).
    let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="scores"/>
    <param name="output_path" type="hdfs" format="scores"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="key" type="KeyId" value="score"/>
      <addon operator="count" key="score" attr="ties"/>
    </operator>
  </operators>
</workflow>"#;
    let records = vec![rec!["a", 5], rec!["b", 5], rec!["c", 9], rec!["d", 5]];
    let (runner, cluster) = run_workflow(wf, records, 2);
    let out = cluster.collect_concat(&runner.plan().output_path).unwrap();
    // Schema extended by the attribute.
    assert_eq!(out.schema.index_of("ties"), Some(2));
    for r in out.batch.as_flat().unwrap() {
        let score = r.value(1).unwrap().as_i64().unwrap();
        let ties = r.value(2).unwrap().as_i64().unwrap();
        assert_eq!(ties, if score == 5 { 3 } else { 1 }, "{r:?}");
    }
}

#[test]
fn block_distribution_after_sort_yields_contiguous_ranges() {
    // The muBLASTP "block" configuration: distribute sorted data in
    // contiguous chunks; each partition's scores are then an interval.
    let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="scores"/>
    <param name="output_path" type="hdfs" format="scores"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/sorted"/>
      <param name="key" type="KeyId" value="score"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="block"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>
  </operators>
</workflow>"#;
    let records: Vec<Record> = (0..32)
        .map(|i| rec![format!("p{i}"), (i * 13) % 97])
        .collect();
    let (runner, cluster) = run_workflow(wf, records, 3);
    let parts = cluster.collect(&runner.plan().output_path).unwrap();
    assert_eq!(parts.len(), 4);
    let ranges: Vec<Vec<i64>> = parts.iter().map(scores).collect();
    // Equal counts and globally non-overlapping, increasing ranges.
    assert!(ranges.iter().all(|r| r.len() == 8));
    for w in ranges.windows(2) {
        assert!(w[0].last().unwrap() <= w[1].first().unwrap());
    }
    let concat: Vec<i64> = ranges.concat();
    assert!(concat.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn num_reducers_override_controls_intermediate_fragments() {
    let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="scores"/>
    <param name="output_path" type="hdfs" format="scores"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort" num_reducers="5">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="key" type="KeyId" value="score"/>
    </operator>
  </operators>
</workflow>"#;
    // Two nodes with 160 records each sample keys 0, 64 and 128 of each
    // at stride 64: enough distinct keys that the configured reducer
    // count is achievable and honored.
    let records: Vec<Record> = (0..320).map(|i| rec![format!("p{i}"), i]).collect();
    let ((runner, cluster), report) = run_workflow_opts(wf, records, 2, ExecOptions::default());
    let parts = cluster.collect(&runner.plan().output_path).unwrap();
    assert_eq!(parts.len(), 5, "num_reducers=5 means five output fragments");
    assert!(report.notes.is_empty());

    // Under the default coarse stride (64), two nodes with 25 records
    // each contribute one sample apiece: only 3 reducer ranges are
    // achievable, and the engine collapses to them with a typed note
    // instead of silently writing empty fragments.
    let records: Vec<Record> = (0..50).map(|i| rec![format!("p{i}"), i]).collect();
    let ((runner, cluster), report) = run_workflow_opts(wf, records, 2, ExecOptions::default());
    let parts = cluster.collect(&runner.plan().output_path).unwrap();
    assert_eq!(parts.len(), 3, "sparse sample collapses 5 reducers to 3");
    assert!(report.notes.iter().any(|n| matches!(
        n,
        RunNote::ReducersCollapsed {
            requested: 5,
            achievable: 3,
            ..
        }
    )));
    let all: Vec<i64> = parts.iter().flat_map(scores).collect();
    assert_eq!(all.len(), 50);
    assert!(all.windows(2).all(|w| w[0] <= w[1]));
}

/// The skewed hot-key sort: about half of 10,000 records share key 7,
/// the rest follow a Zipf-ish tail. Its sample fills only 3 ranges, so a
/// literal 4 on 4 nodes collapses to 3 reducers at run time. Reducer `r`
/// runs on node `r % 4`, so the note names node 3 as idle.
#[test]
fn a_collapse_below_the_node_count_names_the_idle_node() {
    let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="scores"/>
    <param name="output_path" type="hdfs" format="scores"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort" num_reducers="4">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="key" type="KeyId" value="score"/>
    </operator>
  </operators>
</workflow>"#;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut xorshift = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let records: Vec<Record> = (0..10_000)
        .map(|i| {
            let key = if xorshift().is_multiple_of(2) {
                7
            } else {
                let (a, b) = (xorshift() % 1024, xorshift() % 1024);
                1 + ((a * b) >> 5) as i32
            };
            rec![format!("p{i}"), key]
        })
        .collect();
    let ((runner, cluster), report) = run_workflow_opts(wf, records, 4, ExecOptions::default());
    assert_eq!(
        report.notes,
        vec![RunNote::ReducersCollapsed {
            job: "sort".to_string(),
            requested: 4,
            achievable: 3,
            nodes: 4,
        }]
    );
    assert!(
        report.notes[0]
            .to_string()
            .ends_with("; on 4 nodes, node 3 reduces nothing"),
        "{}",
        report.notes[0]
    );
    let parts = cluster.collect(&runner.plan().output_path).unwrap();
    assert_eq!(parts.len(), 3);
    assert_eq!(parts.iter().map(|p| scores(p).len()).sum::<usize>(), 10_000);
}
