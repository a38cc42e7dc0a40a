//! Adaptive-planner transparency and determinism: `--adaptive` may only
//! move output-neutral knobs, so partition bytes must be identical to the
//! literal plan's — across thread counts and under injected faults — and
//! the decision itself must be reproducible: the same input always
//! yields the same rationale fingerprint, on Figure 8, Figure 10, and an
//! adversarially skewed dataset. The planner is judged by what it ships:
//! its observed busiest reducer is never heavier than the literal
//! plan's, on any of the key distributions the proptest draws.

use mublastp::dbgen::DbSpec;
use papar::core::exec::{ExecOptions, WorkflowReport, WorkflowRunner};
use papar::core::plan::Planner;
use papar::mr::{Cluster, Fault, FaultPlan, RetryPolicy, TaskPhase};
use papar::record::batch::{Batch, Dataset};
use papar::record::{wire, Record, Value};
use proptest::prelude::*;
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

/// Figure 8's shape with a mis-tuned `num_reducers="16"` literal — the
/// knob the adaptive planner overrides on a skewed key domain.
const SKEWED_WORKFLOW: &str = r#"
<workflow id="blast_partition" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort" num_reducers="16">
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
      <param name="outputPathList" type="StringList"
             value="/tmp/split/high_degree,/tmp/split/low_degree"
             format="unpack,orig"/>
      <param name="inputPath" type="String" value="$group.outputPath"/>
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

fn options(adaptive: bool, threads: usize) -> ExecOptions {
    ExecOptions {
        adaptive,
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

/// The key distributions the guarantee is checked over.
#[derive(Debug, Clone, Copy)]
enum Keys {
    /// Uniform over `[0, 100_000)`.
    Uniform,
    /// A Zipf-ish tail: the product of two uniform draws concentrates
    /// mass on small keys, with a long sparse upper range.
    Zipf,
    /// ~half the records share one hot key, the rest follow the tail.
    Hot,
}

/// Deterministic records whose sort key (`seq_size`) follows `keys`.
fn keyed_records(keys: Keys, n: usize, seed: u64) -> Vec<Record> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            let key = match keys {
                Keys::Uniform => (next() % 100_000) as i32,
                Keys::Hot if next() % 2 == 0 => 7,
                Keys::Zipf | Keys::Hot => 1 + (((next() % 1024) * (next() % 1024)) >> 5) as i32,
            };
            Record::new(vec![
                Value::Int(i as i32),
                Value::Int(key),
                Value::Int((i * 8) as i32),
                Value::Int(16),
            ])
        })
        .collect()
}

/// Deterministic adversarially skewed keys: ~half the records share one
/// hot key, the rest follow a Zipf-ish tail.
fn skewed_records(n: usize) -> Vec<Record> {
    keyed_records(Keys::Hot, n, 0)
}

/// Run a Figure 8-shaped sort workflow, bound to `/in` → `/out` with 4
/// partitions, over `records` scattered as `/in`; return the partitions'
/// bytes and the report.
fn run_sort(
    workflow: &str,
    records: Vec<Record>,
    mut cluster: Cluster,
    options: ExecOptions,
) -> (Vec<Vec<u8>>, WorkflowReport) {
    let planner = Planner::from_xml(workflow, &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner
        .bind(&args(&[
            ("input_path", "/in"),
            ("output_path", "/out"),
            ("num_partitions", "4"),
        ]))
        .unwrap();
    let runner = WorkflowRunner::with_options(plan, options);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(records)),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    (partition_bytes(&cluster, "/out"), report)
}

/// Single-threaded and traced, so the sort stage's skew histogram is
/// there to read.
fn traced(adaptive: bool) -> ExecOptions {
    ExecOptions {
        trace: true,
        ..options(adaptive, 1)
    }
}

/// The observed busiest reducer of the (possibly fused) sort stage, in
/// records, from the trace's skew histogram.
fn observed_busiest(report: &WorkflowReport) -> u64 {
    let trace = report.trace.as_ref().expect("traced run");
    let skew = trace
        .jobs
        .iter()
        .find(|j| j.name == "sort" || j.name.starts_with("sort+"))
        .and_then(|j| j.skew.as_ref())
        .expect("sort stage skew histogram");
    skew.records.iter().copied().max().unwrap_or(0)
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

fn blast_records() -> Vec<Record> {
    DbSpec::env_nr_scaled(300, 7).generate().index_records()
}

fn rationale_fingerprint(report: &WorkflowReport) -> u64 {
    report
        .rationale
        .as_ref()
        .expect("adaptive run must carry a rationale")
        .fingerprint()
}

/// A fault plan covering both phases of the (possibly fused) sort stage
/// plus the exchange, as in the fusion suite.
fn chaos_cluster(nodes: usize, threads: usize) -> Cluster {
    Cluster::try_new(nodes)
        .unwrap()
        .with_threads(threads)
        .with_replication(1)
        .with_fault_plan(FaultPlan::new(vec![
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
        ]))
        .with_retry(RetryPolicy::default())
}

#[test]
fn blast_adaptive_is_byte_identical_and_plan_stable() {
    let (literal, _) = run_sort(
        BLAST_WORKFLOW,
        blast_records(),
        Cluster::new(3),
        options(false, 1),
    );
    let (baseline, base_report) = run_sort(
        BLAST_WORKFLOW,
        blast_records(),
        Cluster::new(3),
        options(true, 1),
    );
    assert_eq!(baseline, literal, "adaptive changed the output bytes");
    let fp = rationale_fingerprint(&base_report);
    for threads in [1, 4] {
        let (out, report) = run_sort(
            BLAST_WORKFLOW,
            blast_records(),
            Cluster::new(3),
            options(true, threads),
        );
        assert_eq!(out, baseline, "diverged at threads={threads}");
        assert_eq!(
            rationale_fingerprint(&report),
            fp,
            "plan unstable at threads={threads}"
        );
    }
}

#[test]
fn blast_adaptive_survives_faults_with_the_same_plan() {
    let (baseline, base_report) = run_sort(
        BLAST_WORKFLOW,
        blast_records(),
        Cluster::new(3),
        options(true, 1),
    );
    let (out, report) = run_sort(
        BLAST_WORKFLOW,
        blast_records(),
        chaos_cluster(3, 1),
        options(true, 1),
    );
    assert_eq!(out, baseline, "faults changed adaptive output bytes");
    assert_eq!(
        rationale_fingerprint(&report),
        rationale_fingerprint(&base_report),
        "faults changed the plan decision"
    );
    assert!(
        report.faults_injected() > 0,
        "chaos plan must actually fire"
    );
}

#[test]
fn skewed_adaptive_overrides_reducers_but_not_bytes() {
    let (literal, lit_report) = run_sort(
        SKEWED_WORKFLOW,
        skewed_records(3_000),
        Cluster::new(4),
        traced(false),
    );
    let (baseline, base_report) = run_sort(
        SKEWED_WORKFLOW,
        skewed_records(3_000),
        Cluster::new(4),
        traced(true),
    );
    assert_eq!(
        baseline, literal,
        "reducer override must stay output-neutral"
    );
    assert!(
        observed_busiest(&base_report) <= observed_busiest(&lit_report),
        "the adaptive plan's busiest reducer ({}) is heavier than the \
         literal plan's ({})",
        observed_busiest(&base_report),
        observed_busiest(&lit_report)
    );
    let fp = rationale_fingerprint(&base_report);
    for threads in [1, 4] {
        let (out, report) = run_sort(
            SKEWED_WORKFLOW,
            skewed_records(3_000),
            Cluster::new(4),
            options(true, threads),
        );
        assert_eq!(out, baseline, "diverged at threads={threads}");
        assert_eq!(
            rationale_fingerprint(&report),
            fp,
            "plan unstable at threads={threads}"
        );
    }
    let (out, report) = run_sort(
        SKEWED_WORKFLOW,
        skewed_records(3_000),
        chaos_cluster(4, 2),
        options(true, 2),
    );
    assert_eq!(out, baseline, "faults changed skewed adaptive output");
    assert_eq!(rationale_fingerprint(&report), fp);
}

#[test]
fn hybrid_adaptive_is_byte_identical_and_plan_stable() {
    let (literal, _) = run_hybrid(Cluster::new(4), options(false, 1));
    let (baseline, base_report) = run_hybrid(Cluster::new(4), options(true, 1));
    assert_eq!(baseline, literal, "adaptive changed hybrid output bytes");
    let fp = rationale_fingerprint(&base_report);
    for threads in [1, 4] {
        let (out, report) = run_hybrid(Cluster::new(4), options(true, threads));
        assert_eq!(out, baseline, "diverged at threads={threads}");
        assert_eq!(
            rationale_fingerprint(&report),
            fp,
            "plan unstable at threads={threads}"
        );
    }
}

#[test]
fn adaptive_honours_no_fuse() {
    let no_fuse = |adaptive| ExecOptions {
        fuse: false,
        ..options(adaptive, 1)
    };
    let (literal, _) = run_sort(
        BLAST_WORKFLOW,
        blast_records(),
        Cluster::new(3),
        no_fuse(false),
    );
    let (out, report) = run_sort(
        BLAST_WORKFLOW,
        blast_records(),
        Cluster::new(3),
        no_fuse(true),
    );
    let stages: Vec<&str> = report.jobs.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(
        stages,
        ["sort", "distr"],
        "--adaptive must not fuse under --no-fuse"
    );
    assert_eq!(out, literal);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The planner's guarantee, judged by the executed outcome: over
    /// uniform, Zipf and hot-key inputs, with and without a 16-reducer
    /// literal, the adaptive plan's observed busiest reducer is no
    /// heavier than the literal plan's, and its partitions are
    /// byte-identical.
    #[test]
    fn adaptive_is_never_heavier_than_the_literal_plan(
        keys in prop_oneof![Just(Keys::Uniform), Just(Keys::Zipf), Just(Keys::Hot)],
        n in 2_000usize..20_001,
        seed in 1u64..u64::MAX,
        nodes in prop_oneof![Just(2usize), Just(4usize)],
        literal_16 in any::<bool>(),
    ) {
        let workflow = if literal_16 { SKEWED_WORKFLOW } else { BLAST_WORKFLOW };
        let records = keyed_records(keys, n, seed);
        let (literal, lit_report) =
            run_sort(workflow, records.clone(), Cluster::new(nodes), traced(false));
        let (out, report) = run_sort(workflow, records, Cluster::new(nodes), traced(true));
        prop_assert_eq!(out, literal);
        let (ada, lit) = (observed_busiest(&report), observed_busiest(&lit_report));
        prop_assert!(
            ada <= lit,
            "{keys:?} n={n} seed={seed} nodes={nodes} literal_16={literal_16}: adaptive \
             busiest reducer {ada} > literal {lit}; chose {}",
            report.rationale.as_ref().unwrap().chosen.summary()
        );
    }
}
