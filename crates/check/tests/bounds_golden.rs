//! Golden bounds diagnostics: each `examples/configs/bounds_*.xml`
//! fixture trips exactly one quantitative code, at the span of the
//! operator that causes it. The paper's own configs (Fig 8, Fig 10)
//! stay finding-free and produce fully bounded stage tables. Each fusion
//! gate keeps its pair apart in lowering, W009 and the P099 verifier.

use papar_check::{analyze_bounds, verify_lowering, BoundsConfig, Code};
use papar_config::xml::Span;
use papar_config::{InputConfig, WorkflowConfig};
use papar_core::physplan::{lower, PhysicalPlan, PhysicalStage, StageKind};
use papar_core::plan::{Planner, WorkflowPlan};
use std::collections::HashMap;

const BLAST_DB: &str = include_str!("../../../examples/configs/blast_db.xml");
const GRAPH_EDGE: &str = include_str!("../../../examples/configs/graph_edge.xml");
const FIG8: &str = include_str!("../../../examples/configs/blast_partition.xml");
const FIG10: &str = include_str!("../../../examples/configs/hybrid_cut.xml");
const P021: &str = include_str!("../../../examples/configs/bounds_p021.xml");
const W007: &str = include_str!("../../../examples/configs/bounds_w007.xml");
const W008: &str = include_str!("../../../examples/configs/bounds_w008.xml");
const W009: &str = include_str!("../../../examples/configs/bounds_w009.xml");

/// The 1-based line/column of the first occurrence of `needle`.
fn span_of(doc: &str, needle: &str) -> Span {
    let off = doc.find(needle).expect("needle in document");
    let line = doc[..off].matches('\n').count() + 1;
    let col = off - doc[..off].rfind('\n').map(|p| p + 1).unwrap_or(0) + 1;
    Span::new(line, col)
}

fn bind(
    workflow_xml: &str,
    input_xml: &str,
    extra_args: &[(&str, &str)],
) -> (WorkflowConfig, WorkflowPlan) {
    let wf = WorkflowConfig::parse_str(workflow_xml).unwrap();
    let input = InputConfig::parse_str(input_xml).unwrap();
    let mut args: HashMap<String, String> = HashMap::from([
        ("input_path".to_string(), "/plan/input".to_string()),
        ("input_file".to_string(), "/plan/input".to_string()),
        ("output_path".to_string(), "/plan/output".to_string()),
    ]);
    args.retain(|k, _| wf.arguments.iter().any(|a| a.name == *k));
    for (k, v) in extra_args {
        args.insert(k.to_string(), v.to_string());
    }
    let plan = Planner::new(wf.clone(), vec![input]).bind(&args).unwrap();
    (wf, plan)
}

#[test]
fn bounds_p021_fires_on_reducer_overcommit() {
    let (wf, plan) = bind(P021, BLAST_DB, &[]);
    let phys = lower(&plan, 4, true);
    let report = analyze_bounds(
        &wf,
        &plan,
        &phys,
        &BoundsConfig {
            distinct_keys: Some(3),
            ..Default::default()
        },
    );
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.code, Code::P021);
    assert_eq!(d.span, span_of(P021, r#"<operator id="sort""#));
    assert!(d.message.contains("8 reducers"), "{}", d.message);
    assert!(d.message.contains("3 distinct"), "{}", d.message);
    // Declaring enough keys silences it.
    let quiet = analyze_bounds(
        &wf,
        &plan,
        &phys,
        &BoundsConfig {
            distinct_keys: Some(8),
            ..Default::default()
        },
    );
    assert!(quiet.diagnostics.is_empty(), "{:?}", quiet.diagnostics);
}

#[test]
fn bounds_w007_fires_on_provably_empty_partitions() {
    let (wf, plan) = bind(W007, BLAST_DB, &[]);
    let phys = lower(&plan, 4, true);
    let report = analyze_bounds(
        &wf,
        &plan,
        &phys,
        &BoundsConfig {
            records: Some(10),
            ..Default::default()
        },
    );
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.code, Code::W007);
    assert_eq!(d.span, span_of(W007, r#"<operator id="distr""#));
    assert!(d.message.contains("54 partition(s)"), "{}", d.message);
    // With enough records every partition can be reached.
    let quiet = analyze_bounds(
        &wf,
        &plan,
        &phys,
        &BoundsConfig {
            records: Some(640),
            ..Default::default()
        },
    );
    assert!(quiet.diagnostics.is_empty(), "{:?}", quiet.diagnostics);
}

#[test]
fn bounds_w008_fires_on_value_routed_skew() {
    let (wf, plan) = bind(W008, GRAPH_EDGE, &[]);
    let phys = lower(&plan, 4, true);
    let report = analyze_bounds(
        &wf,
        &plan,
        &phys,
        &BoundsConfig {
            records: Some(64),
            ..Default::default()
        },
    );
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.code, Code::W008);
    assert_eq!(d.span, span_of(W008, r#"<operator id="distr""#));
    assert!(d.message.contains("16.0x the fair share"), "{}", d.message);
    // A ratio that admits the worst case silences it.
    let quiet = analyze_bounds(
        &wf,
        &plan,
        &phys,
        &BoundsConfig {
            records: Some(64),
            skew_ratio: 16.0,
            ..Default::default()
        },
    );
    assert!(quiet.diagnostics.is_empty(), "{:?}", quiet.diagnostics);
}

#[test]
fn fig8_stays_finding_free_with_a_fully_bounded_table() {
    let (wf, plan) = bind(FIG8, BLAST_DB, &[("num_partitions", "4")]);
    let phys = lower(&plan, 4, true);
    let report = analyze_bounds(
        &wf,
        &plan,
        &phys,
        &BoundsConfig {
            records: Some(640),
            ..Default::default()
        },
    );
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    for col in [
        "stage",
        "reducers",
        "records-in",
        "records-out",
        "pairs",
        "max-load",
    ] {
        assert!(
            report.table.contains(col),
            "missing {col}:\n{}",
            report.table
        );
    }
    assert!(report.table.contains("640"), "{}", report.table);
    // Exact input: no interval in the table stays unbounded.
    assert!(!report.table.contains('?'), "{}", report.table);
}

const W010: &str = include_str!("../../../examples/configs/reducers_w010.xml");

/// The full stage table, the stage facts it does not print and every
/// diagnostic of one bounds analysis, as one text block headed by `name`.
fn table_and_findings(
    name: &str,
    (workflow, input): (&str, &str),
    args: &[(&str, &str)],
    cfg: BoundsConfig,
) -> String {
    let (wf, plan) = bind(workflow, input, args);
    let phys = lower(&plan, cfg.num_nodes, true);
    let report = analyze_bounds(&wf, &plan, &phys, &cfg);
    let mut text = format!("== {name}\n{}", report.table);
    // What the table leaves out: each stage's shuffle bound, output
    // datasets and partition layout, and the datasets the pass ends with.
    for s in &report.bounds.stages {
        text += &format!("{}: shuffle-bytes {}\n", s.id, s.shuffle_bytes);
        for (out, b) in &s.outputs {
            text += &format!(
                "  {out}: records {} entries {} bytes {} distinct {} fragments {}\n",
                b.records, b.entries, b.bytes, b.distinct, b.fragments
            );
        }
        if let Some(p) = &s.partitions {
            let parts: Vec<String> = p.per_partition.iter().map(|i| i.to_string()).collect();
            text += &format!(
                "  partitions {} empty {} imbalance {:?}\n",
                parts.join(" "),
                p.provably_empty,
                p.imbalance_hi
            );
        }
    }
    let datasets: Vec<&str> = report.bounds.datasets.keys().map(String::as_str).collect();
    text += &format!("datasets {}\n", datasets.join(" "));
    text + &papar_check::render_text(&report.diagnostics)
}

/// Every column of every stage row and every finding, pinned: the paper's
/// two workflows on 4 and 7 nodes, and each bounds fixture with the flags
/// its header names.
#[test]
fn bound_tables_and_findings_are_pinned() {
    let fig8 = [("num_partitions", "4")];
    let fig10 = [("num_partitions", "4"), ("threshold", "4")];
    let at = |num_nodes: usize, records: u64| BoundsConfig {
        num_nodes,
        records: Some(records),
        ..Default::default()
    };
    let got = [
        table_and_findings("fig8 4 nodes", (FIG8, BLAST_DB), &fig8, at(4, 640)),
        table_and_findings("fig8 7 nodes", (FIG8, BLAST_DB), &fig8, at(7, 640)),
        table_and_findings("fig10 4 nodes", (FIG10, GRAPH_EDGE), &fig10, at(4, 600)),
        table_and_findings("fig10 7 nodes", (FIG10, GRAPH_EDGE), &fig10, at(7, 600)),
        table_and_findings(
            "bounds_p021",
            (P021, BLAST_DB),
            &[],
            BoundsConfig {
                distinct_keys: Some(3),
                ..Default::default()
            },
        ),
        table_and_findings("bounds_w007", (W007, BLAST_DB), &[], at(4, 10)),
        table_and_findings("bounds_w008", (W008, GRAPH_EDGE), &[], at(4, 64)),
        table_and_findings(
            "bounds_w009",
            (W009, BLAST_DB),
            &[],
            BoundsConfig::default(),
        ),
        table_and_findings("reducers_w010", (W010, BLAST_DB), &[], at(4, 640)),
    ]
    .concat();
    assert_eq!(got, PINNED_TABLES, "\n{got}");
}

const PINNED_TABLES: &str = r#"== fig8 4 nodes
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
sort+distr              4            640            640    [640, 1280]     [160, 640]     [10240, 10260]
sort+distr: shuffle-bytes [0, 21152]
  /plan/output: records 640 entries 640 bytes [10240, 10260] distinct [1, 640] fragments 4
  partitions 160 160 160 160 empty 0 imbalance Some(1.0)
datasets /plan/input /plan/output
== fig8 7 nodes
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
sort+distr              7            640            640    [640, 1280]      [92, 640]     [10240, 10260]
sort+distr: shuffle-bytes [0, 22097]
  /plan/output: records 640 entries 640 bytes [10240, 10260] distinct [1, 640] fragments 4
  partitions 160 160 160 160 empty 0 imbalance Some(1.0)
datasets /plan/input /plan/output
== fig10 4 nodes
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
group+split             4            600            600            600     [150, 600]             [0, ?]
distr                   4            600            600       [0, 600]     [150, 600]          [1200, ?]
group+split: shuffle-bytes [0, ?]
  /tmp/split/high_degree: records [0, 600] entries [0, 600] bytes [0, ?] distinct [0, 600] fragments 4
  /tmp/split/low_degree: records [0, 600] entries [0, 600] bytes [0, ?] distinct [0, 600] fragments 4
distr: shuffle-bytes [0, ?]
  /plan/output: records 600 entries 600 bytes [1200, ?] distinct [1, 600] fragments 4
  partitions [0, 600] [0, 600] [0, 600] [0, 600] empty 0 imbalance Some(4.0)
datasets /plan/input /plan/output /tmp/split/high_degree /tmp/split/low_degree
== fig10 7 nodes
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
group+split             7            600            600            600      [86, 600]             [0, ?]
distr                   4            600            600       [0, 600]     [150, 600]          [1200, ?]
group+split: shuffle-bytes [0, ?]
  /tmp/split/high_degree: records [0, 600] entries [0, 600] bytes [0, ?] distinct [0, 600] fragments 7
  /tmp/split/low_degree: records [0, 600] entries [0, 600] bytes [0, ?] distinct [0, 600] fragments 7
distr: shuffle-bytes [0, ?]
  /plan/output: records 600 entries 600 bytes [1200, ?] distinct [1, 600] fragments 4
  partitions [0, 600] [0, 600] [0, 600] [0, 600] empty 0 imbalance Some(4.0)
datasets /plan/input /plan/output /tmp/split/high_degree /tmp/split/low_degree
== bounds_p021
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
sort                    8         [0, ?]         [0, ?]         [0, ?]         [0, ?]             [0, ?]
sort: shuffle-bytes [0, ?]
  /plan/output: records [0, ?] entries [0, ?] bytes [0, ?] distinct [0, 3] fragments 8
datasets /plan/input /plan/output
error[P021]: workflow:12:5: job 'sort' runs 8 reducers but its input has at most 3 distinct key(s); a value-routed partitioner can never feed 5 of them
== bounds_w007
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
distr                  64             10             10             10              1         [160, 480]
                 54 of 64 partition(s) provably empty
distr: shuffle-bytes [0, 370]
  /plan/output: records 10 entries 10 bytes [160, 480] distinct [1, 10] fragments 64
  partitions 1 1 1 1 1 1 1 1 1 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 empty 54 imbalance None
datasets /plan/input /plan/output
warning[W007]: workflow:11:5: job 'distr' distributes at most 10 entries over 64 partitions: 54 partition(s) are provably empty under every admissible input
== bounds_w008
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
distr                  16             64             64             64        [4, 64]           [128, ?]
distr: shuffle-bytes [0, ?]
  /plan/output: records 64 entries 64 bytes [128, ?] distinct [1, 64] fragments 16
  partitions [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] [0, 64] empty 0 imbalance Some(16.0)
datasets /plan/input /plan/output
warning[W008]: workflow:12:5: job 'distr': the static worst case puts 64 of 64 record(s) on one of 16 partition(s) (16.0x the fair share, --skew-ratio 4.0); a value-routed policy admits a single hot key
== bounds_w009
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
sort                    4         [0, ?]         [0, ?]         [0, ?]         [0, ?]             [0, ?]
distr                   4         [0, ?]         [0, ?]         [0, ?]         [0, ?]             [0, ?]
sort: shuffle-bytes [0, ?]
  /user/sorted: records [0, ?] entries [0, ?] bytes [0, ?] distinct [0, ?] fragments 4
distr: shuffle-bytes [0, ?]
  /plan/output: records [0, ?] entries [0, ?] bytes [0, ?] distinct [0, ?] fragments 4
  partitions [0, ?] [0, ?] [0, ?] [0, ?] empty 0 imbalance None
datasets /plan/input /plan/output /user/sorted
warning[W009]: workflow:12:5: jobs 'sort' and 'distr' look fusible but were not fused: distribute policy 'graphVertexCut' routes by value, so partition assignments cannot be derived from the sorted runs' prefix sums
== reducers_w010
stage            reducers     records-in    records-out          pairs       max-load          out-bytes
sort+distr              6            640            640    [640, 1280]      [80, 640]     [10240, 10280]
sort+distr: shuffle-bytes [0, 21864]
  /plan/output: records 640 entries 640 bytes [10240, 10280] distinct [1, 640] fragments 8
  partitions 80 80 80 80 80 80 80 80 empty 0 imbalance Some(1.0)
datasets /plan/input /plan/output
"#;

/// A sort→distribute pair over the blast input, fusible as written.
const SORT_DISTR: &str = r#"
<workflow id="pair" name="sort then distribute">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/a/sorted"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>
  </operators>
</workflow>"#;

/// One fusion gate: a workflow whose jobs `first` and `first + 1` fail
/// exactly that gate on 4 nodes, and the gate's W009 wording.
struct GateRow {
    workflow: String,
    input: &'static str,
    args: &'static [(&'static str, &'static str)],
    /// Edits the bound plan, for a shape the binder never produces.
    edit: fn(&mut WorkflowPlan),
    first: usize,
    gate: &'static str,
}

/// `phys` with jobs `first` and `first + 1` fused by hand, whatever the
/// gates say.
fn hand_fuse(plan: &WorkflowPlan, phys: &PhysicalPlan, first: usize) -> PhysicalPlan {
    let (a, b) = (&plan.jobs[first], &plan.jobs[first + 1]);
    let kind = match a.kind {
        papar_core::plan::JobKind::Sort { .. } => StageKind::FusedSortDistribute {
            sort: first,
            distribute: first + 1,
        },
        _ => StageKind::FusedGroupSplit {
            group: first,
            split: first + 1,
        },
    };
    let mut stages: Vec<PhysicalStage> = (phys.stages.iter())
        .filter(|s| s.logical != [first + 1])
        .cloned()
        .collect();
    let at = stages.iter().position(|s| s.logical == [first]).unwrap();
    stages[at] = PhysicalStage {
        id: format!("{}+{}", a.id, b.id),
        logical: vec![first, first + 1],
        kind,
        elided: vec![a.output().to_string()],
    };
    PhysicalPlan {
        stages,
        fused: true,
    }
}

#[test]
fn each_fusion_gate_keeps_its_pair_apart_and_is_named_once() {
    const NO_EDIT: fn(&mut WorkflowPlan) = |_| {};
    let second_distribute = r#"
    <operator id="again" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="block"/>
      <param name="numPartitions" type="integer" value="2"/>
    </operator>
  </operators>"#;
    let second_sort = r#"</operator>
    <operator id="other" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/a/other"/>
      <param name="key" type="KeyId" value="seq_start"/>
    </operator>"#;
    let rows = [
        GateRow {
            workflow: SORT_DISTR.replace("roundRobin", "graphVertexCut"),
            input: BLAST_DB,
            args: &[],
            edit: NO_EDIT,
            first: 0,
            gate: "distribute policy 'graphVertexCut' routes by value, so partition \
                   assignments cannot be derived from the sorted runs' prefix sums",
        },
        GateRow {
            workflow: SORT_DISTR.replace(
                r#"value="/user/a/sorted"/>"#,
                r#"value="/user/a/sorted" format="pack"/>"#,
            ),
            input: BLAST_DB,
            args: &[],
            edit: NO_EDIT,
            first: 0,
            gate: "sort output '/user/a/sorted' is packed: entry ranks diverge from record ranks",
        },
        GateRow {
            workflow: SORT_DISTR.to_string(),
            input: BLAST_DB,
            args: &[],
            edit: |plan| plan.output_path = "/user/a/sorted".to_string(),
            first: 0,
            gate: "sort output '/user/a/sorted' is the workflow output and must survive the run",
        },
        GateRow {
            workflow: SORT_DISTR
                .replace("$output_path", "/user/b/parts")
                .replace("\n  </operators>", second_distribute),
            input: BLAST_DB,
            args: &[],
            edit: NO_EDIT,
            first: 0,
            gate: "sort output '/user/a/sorted' has 2 consumers; streaming it would starve one",
        },
        GateRow {
            workflow: SORT_DISTR
                .replacen("</operator>", second_sort, 1)
                .replace("$sort.outputPath", "/user/a/"),
            input: BLAST_DB,
            args: &[],
            edit: NO_EDIT,
            first: 1,
            gate: "the distribute does not read exactly the sort output '/user/a/other'",
        },
        GateRow {
            workflow: FIG10.replace(
                r#"operator="group">"#,
                r#"operator="group" num_reducers="8">"#,
            ),
            input: GRAPH_EDGE,
            args: &[("num_partitions", "4"), ("threshold", "4")],
            edit: NO_EDIT,
            first: 0,
            gate: "group runs 8 reducer(s) but the cluster has 4 node(s): fused \
                   (per-reducer) and unfused (per-node) fragment ordinals would diverge",
        },
    ];
    for row in rows {
        let (wf, mut plan) = bind(&row.workflow, row.input, row.args);
        (row.edit)(&mut plan);
        let (a, b) = (&plan.jobs[row.first].id, &plan.jobs[row.first + 1].id);
        // Lowering keeps the pair as two stages.
        let phys = lower(&plan, 4, true);
        for job in [row.first, row.first + 1] {
            assert!(
                phys.stages.iter().any(|s| s.logical == [job]),
                "{}: {phys:?}",
                row.gate
            );
        }
        // W009 names the gate, at the first job's operator.
        let report = analyze_bounds(&wf, &plan, &phys, &BoundsConfig::default());
        let w009: Vec<_> = (report.diagnostics.iter())
            .filter(|d| d.code == Code::W009)
            .collect();
        assert_eq!(w009.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(
            w009[0].message,
            format!(
                "jobs '{a}' and '{b}' look fusible but were not fused: {}",
                row.gate
            )
        );
        let operator = format!(r#"<operator id="{a}""#);
        assert_eq!(w009[0].span, span_of(&row.workflow, &operator));
        // The verifier refuses the pair fused by hand, naming the gate.
        assert!(verify_lowering(&plan, &phys, 4).is_empty());
        let p099 = verify_lowering(&plan, &hand_fuse(&plan, &phys, row.first), 4);
        assert!(
            p099.iter()
                .any(|d| d.code == Code::P099 && d.message.contains(row.gate)),
            "{}: {p099:?}",
            row.gate
        );
    }

    // The same pairs with every gate open fuse, with no W009 and a clean
    // verification.
    for (workflow, input, args) in [
        (SORT_DISTR, BLAST_DB, &[][..]),
        (
            FIG10,
            GRAPH_EDGE,
            &[("num_partitions", "4"), ("threshold", "4")][..],
        ),
    ] {
        let (wf, plan) = bind(workflow, input, args);
        let phys = lower(&plan, 4, true);
        assert_eq!(phys.fused_stages(), 1, "{phys:?}");
        let report = analyze_bounds(&wf, &plan, &phys, &BoundsConfig::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(verify_lowering(&plan, &phys, 4).is_empty());
    }
}
