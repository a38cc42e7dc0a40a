//! Golden bounds diagnostics: each `examples/configs/bounds_*.xml`
//! fixture trips exactly one quantitative code, at the span of the
//! operator that causes it. The paper's own configs (Fig 8, Fig 10)
//! stay finding-free and produce fully bounded stage tables.

use papar_check::{analyze_bounds, BoundsConfig, Code};
use papar_config::xml::Span;
use papar_config::{InputConfig, WorkflowConfig};
use papar_core::physplan::lower;
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
fn bounds_w009_names_the_fusion_blocking_gate() {
    let (wf, plan) = bind(W009, BLAST_DB, &[]);
    let phys = lower(&plan, 4, true);
    // The value-routed policy defeats fusion: two stages survive.
    assert_eq!(phys.stages.len(), 2);
    let report = analyze_bounds(&wf, &plan, &phys, &BoundsConfig::default());
    let w009: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::W009)
        .collect();
    assert_eq!(w009.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(w009[0].span, span_of(W009, r#"<operator id="sort""#));
    assert!(
        w009[0].message.contains("graphVertexCut"),
        "{}",
        w009[0].message
    );
    // The same pair with an index-routed policy fuses, so no W009 (and
    // the fused stage carries a passing legality proof).
    let fusible = W009.replace("graphVertexCut", "roundRobin");
    let wf = WorkflowConfig::parse_str(&fusible).unwrap();
    let input = InputConfig::parse_str(BLAST_DB).unwrap();
    let args = HashMap::from([
        ("input_path".to_string(), "/plan/input".to_string()),
        ("output_path".to_string(), "/plan/output".to_string()),
    ]);
    let plan = Planner::new(wf.clone(), vec![input]).bind(&args).unwrap();
    let phys = lower(&plan, 4, true);
    assert_eq!(phys.stages.len(), 1);
    let report = analyze_bounds(&wf, &plan, &phys, &BoundsConfig::default());
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.bounds.proofs.len(), 1);
    assert!(report.bounds.proofs[0].ok);
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

#[test]
fn fig10_stays_finding_free_and_all_proofs_pass() {
    let (wf, plan) = bind(
        FIG10,
        GRAPH_EDGE,
        &[("num_partitions", "4"), ("threshold", "4")],
    );
    let phys = lower(&plan, 4, true);
    let report = analyze_bounds(
        &wf,
        &plan,
        &phys,
        &BoundsConfig {
            records: Some(600),
            ..Default::default()
        },
    );
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert!(!report.bounds.proofs.is_empty());
    assert!(report.bounds.proofs.iter().all(|p| p.ok));
    assert!(report.table.contains("600"), "{}", report.table);
}
