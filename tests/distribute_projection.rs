//! The hybrid-cut distribute ships only the fields its output keeps.
//!
//! Figure 10's output format (`graph_edge`: `vertex_a`, `vertex_b`) drops
//! the `indegree` count the group added. The distribute projects each
//! entry onto its output format where the entry enters the shuffle, so
//! the stock workflow moves strictly fewer bytes than the same workflow
//! whose output format keeps the count — and both still cut the graph the
//! way PowerLyra does. Seven nodes for eight partitions: the group's
//! reducers and the distribute's partitions sit on different nodes, so
//! packed low-degree groups cross the network too.

use papar::core::exec::{ExecOptions, WorkflowRunner};
use papar::core::plan::Planner;
use papar::mr::Cluster;
use papar::record::batch::{Batch, Dataset};
use powerlyra::gen;
use powerlyra::partition::hybrid_cut;
use std::collections::HashMap;

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

/// An output format that keeps the group's count.
const COUNTED_EDGE_CFG: &str = r#"
<input id="counted_edge" name="edge lists with in-degrees">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\t"/>
    <value name="indegree" type="long"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

/// Figure 10, its output in format `OUT_FORMAT`.
const HYBRID_WORKFLOW: &str = r#"
<workflow id="hybrid_cut" name="Hybrid-cut">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
    <param name="output_path" type="hdfs" format="OUT_FORMAT"/>
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

const PARTITIONS: usize = 8;
const THRESHOLD: usize = 40;
const NODES: usize = 7;

/// Run Figure 10 into `out_format` on `NODES` nodes: each partition's
/// edges as sorted `(src, dst)` pairs, and the distribute's `shuffle_lo`.
fn run(
    graph: &powerlyra::Graph,
    out_format: &str,
    compression: bool,
) -> (Vec<Vec<(u32, u32)>>, u64) {
    let workflow = HYBRID_WORKFLOW.replace("OUT_FORMAT", out_format);
    let planner = Planner::from_xml(&workflow, &[EDGE_INPUT_CFG, COUNTED_EDGE_CFG]).unwrap();
    let args: HashMap<String, String> = [
        ("input_file", "/g/in".to_string()),
        ("output_path", "/g/out".to_string()),
        ("num_partitions", PARTITIONS.to_string()),
        ("threshold", THRESHOLD.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let options = ExecOptions {
        compression,
        ..ExecOptions::default()
    };
    let runner = WorkflowRunner::with_options(planner.bind(&args).unwrap(), options);
    let mut cluster = Cluster::new(NODES);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let input_cfg = papar_config::InputConfig::parse_str(EDGE_INPUT_CFG).unwrap();
    let text = gen::to_snap_text(graph);
    let records = papar::record::codec::text::read(&input_cfg, &schema, &text).unwrap();
    let input = Dataset::new(schema, Batch::Flat(records));
    runner.scatter_input(&mut cluster, "/g/in", input).unwrap();
    let report = runner.run(&mut cluster).unwrap();
    let distr = report.jobs.iter().find(|j| j.name == "distr").unwrap();

    let vertex = |v: &papar::record::Value| v.as_str().unwrap().parse::<u32>().unwrap();
    let partitions = (cluster.collect("/g/out").unwrap().into_iter())
        .map(|d| {
            let mut edges: Vec<(u32, u32)> = (d.batch.flatten().iter())
                .map(|r| (vertex(r.value(0).unwrap()), vertex(r.value(1).unwrap())))
                .collect();
            edges.sort_unstable();
            edges
        })
        .collect();
    (partitions, distr.shuffle_lo)
}

#[test]
fn the_distribute_ships_only_the_fields_its_output_keeps() {
    let graph = gen::chung_lu(400, 3200, 2.0, 31).unwrap();
    let native: Vec<Vec<(u32, u32)>> = (hybrid_cut(&graph, PARTITIONS, THRESHOLD).unwrap().edges)
        .into_iter()
        .map(|mut edges| {
            edges.sort_unstable();
            edges
        })
        .collect();
    for compression in [false, true] {
        let (stock, stock_lo) = run(&graph, "graph_edge", compression);
        let (counted, counted_lo) = run(&graph, "counted_edge", compression);
        assert_eq!(stock, native, "compression {compression}");
        assert_eq!(counted, native, "compression {compression}");
        assert!(
            stock_lo < counted_lo,
            "compression {compression}: dropping indegree must shrink the shuffle: \
             {stock_lo} >= {counted_lo}"
        );
    }
}
