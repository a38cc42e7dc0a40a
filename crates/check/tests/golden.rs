//! Golden diagnostics: one test per diagnostic class, asserting the exact
//! code AND the exact source span. Spans are computed from the document
//! text with [`span_of`] instead of hand-counted columns, so the tests
//! survive reformatting of the fixtures as long as the needles stay unique.

use papar_check::{
    analyze, check_sources, json, verify_lowering, verify_plan, Analysis, CheckContext, Code,
};
use papar_config::xml::Span;
use papar_config::{InputConfig, WorkflowConfig};
use papar_core::physplan::{lower, StageKind};
use papar_core::plan::{Format, Planner};
use std::collections::HashMap;

// ---- fixtures --------------------------------------------------------

const BLAST_DB: &str = r#"<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;

const GRAPH_EDGE: &str = r#"<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

/// Paper Figure 8, verbatim (including the `ouputPath` typo on the sort
/// operator and the `$sort.ouputPath` back-reference).
const FIG8: &str = r#"<workflow id="blast_partition" name="BLAST database partition">
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

/// Paper Figure 10, verbatim.
const FIG10: &str = r#"<workflow id="hybrid_cut" name="Hybrid-cut">
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

// ---- helpers ---------------------------------------------------------

/// The 1-based line/column of the `nth` (0-based) occurrence of `needle`.
fn span_of(doc: &str, needle: &str, nth: usize) -> Span {
    let mut from = 0;
    let mut remaining = nth;
    let off = loop {
        let i = doc[from..]
            .find(needle)
            .unwrap_or_else(|| panic!("needle {needle:?} (#{nth}) not in document"))
            + from;
        if remaining == 0 {
            break i;
        }
        remaining -= 1;
        from = i + 1;
    };
    let line = doc[..off].matches('\n').count() + 1;
    let col = off - doc[..off].rfind('\n').map(|p| p + 1).unwrap_or(0) + 1;
    Span::new(line, col)
}

fn check(wf: &str) -> Analysis {
    check_sources(wf, &[("blast_db.xml", BLAST_DB)], &CheckContext::default())
}

#[track_caller]
fn assert_diag(a: &Analysis, code: Code, span: Span) {
    assert!(
        a.diagnostics
            .iter()
            .any(|d| d.code == code && d.span == span),
        "expected {} at {span}, got:\n{}",
        code.as_str(),
        papar_check::render_text(&a.diagnostics)
    );
}

/// Exactly one diagnostic: the `W006` fusion note at `needle`'s position.
#[track_caller]
fn assert_w006_only(a: &Analysis, doc: &str, needle: &str) {
    assert_eq!(
        a.diagnostics.len(),
        1,
        "{}",
        papar_check::render_text(&a.diagnostics)
    );
    assert_diag(a, Code::W006, span_of(doc, needle, 0));
}

/// A minimal one-sort workflow with holes for perturbation.
fn sort_wf(params: &str) -> String {
    format!(
        r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
{params}
    </operator>
  </operators>
</workflow>"#
    )
}

// ---- P0xx: errors ----------------------------------------------------

#[test]
fn p000_duplicate_attribute() {
    let wf = r#"<workflow id="w" id="w2" name="n">
  <operators/>
</workflow>"#;
    let a = check(wf);
    assert_diag(&a, Code::P000, span_of(wf, r#"id="w2""#, 0));
    assert!(a.has_errors());
}

#[test]
fn p000_no_operators() {
    let wf = "<workflow id=\"w\" name=\"n\">\n  <operators/>\n</workflow>";
    let a = check(wf);
    assert_diag(&a, Code::P000, Span::new(1, 1));
}

#[test]
fn p001_unbound_argument_reference() {
    // `$input_fil` — a typo for the declared `input_path`.
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_fil"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_size"/>"#,
    );
    let a = check(&wf);
    assert_diag(&a, Code::P001, span_of(&wf, r#"value="$input_fil""#, 0));
    let d = &a.errors()[0];
    assert!(d.message.contains("input_fil"), "{}", d.message);
}

#[test]
fn p001_undeclared_launch_argument() {
    let ctx = CheckContext {
        args: HashMap::from([("bogus".to_string(), "1".to_string())]),
        ..Default::default()
    };
    let a = check_sources(FIG8, &[("blast_db.xml", BLAST_DB)], &ctx);
    assert_diag(&a, Code::P001, span_of(FIG8, "<workflow", 0));
}

#[test]
fn p002_unknown_job_reference() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$nope.outputPath"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_size"/>"#,
    );
    let a = check(&wf);
    assert_diag(
        &a,
        Code::P002,
        span_of(&wf, r#"value="$nope.outputPath""#, 0),
    );
}

#[test]
fn p002_unknown_addon_attribute() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/a"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="sort2" operator="Sort">
      <param name="inputPath" type="String" value="/a"/>
      <param name="outputPath" type="String" value="/b"/>
      <param name="key" type="KeyId" value="$sort.$weight"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert_diag(&a, Code::P002, span_of(wf, r#"value="$sort.$weight""#, 0));
}

#[test]
fn p003_self_reference() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_size"/>"#,
    );
    let a = check(&wf);
    assert_diag(
        &a,
        Code::P003,
        span_of(&wf, r#"value="$sort.outputPath""#, 0),
    );
}

#[test]
fn p003_forward_reference() {
    // Jobs launch in document order: reading a later job's output is the
    // dataflow cycle the analyzer must reject.
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="first" operator="Sort">
      <param name="inputPath" type="String" value="$second.outputPath"/>
      <param name="outputPath" type="String" value="/a"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="second" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/b"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    let span = span_of(wf, r#"value="$second.outputPath""#, 0);
    assert_diag(&a, Code::P003, span);
    let d = a.diagnostics.iter().find(|d| d.code == Code::P003).unwrap();
    assert!(d.message.contains("document order"), "{}", d.message);
}

#[test]
fn p004_duplicate_operator_id() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/a"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="/a"/>
      <param name="outputPath" type="String" value="/b"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert_diag(&a, Code::P004, span_of(wf, r#"id="sort""#, 1));
}

#[test]
fn p005_duplicate_dataset_name() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/out"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/out"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert_diag(&a, Code::P005, span_of(wf, r#"value="/user/out""#, 1));
}

#[test]
fn p006_unknown_sort_key() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_siz"/>"#,
    );
    let a = check(&wf);
    assert_diag(&a, Code::P006, span_of(&wf, r#"value="seq_siz""#, 0));
    // The message lists the fields that do exist.
    let d = a.errors()[0];
    assert!(d.message.contains("seq_size"), "{}", d.message);
}

#[test]
fn p007_missing_required_param() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>"#,
    );
    let a = check(&wf);
    assert_diag(&a, Code::P007, span_of(&wf, r#"<operator id="sort""#, 0));
}

#[test]
fn p008_malformed_split_policy() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPathList" type="StringList" value="/a,/b"/>
      <param name="key" type="KeyId" value="seq_size"/>
      <param name="policy" type="SplitPolicy" value="gibberish"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert_diag(&a, Code::P008, span_of(wf, r#"value="gibberish""#, 0));
}

#[test]
fn p008_split_arity_mismatch() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPathList" type="StringList" value="/a,/b,/c"/>
      <param name="key" type="KeyId" value="seq_size"/>
      <param name="policy" type="SplitPolicy" value="{&gt;=, 4},{&lt;,4}"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert_diag(
        &a,
        Code::P008,
        span_of(wf, r#"value="{&gt;=, 4},{&lt;,4}""#, 0),
    );
}

#[test]
fn p009_threshold_incomparable_with_key() {
    // String key field, numeric thresholds.
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
  </arguments>
  <operators>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPathList" type="StringList" value="/a,/b"/>
      <param name="key" type="KeyId" value="vertex_a"/>
      <param name="policy" type="SplitPolicy" value="{&gt;=, 4},{&lt;,4}"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check_sources(
        wf,
        &[("graph_edge.xml", GRAPH_EDGE)],
        &CheckContext::default(),
    );
    assert_diag(
        &a,
        Code::P009,
        span_of(wf, r#"value="{&gt;=, 4},{&lt;,4}""#, 0),
    );
}

#[test]
fn p010_unknown_addon_operator() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_size"/>
      <addon operator="median" key="seq_size" attr="m"/>"#,
    );
    let a = check(&wf);
    assert_diag(&a, Code::P010, span_of(&wf, "<addon", 0));
}

#[test]
fn p010_sum_over_string_field() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
  </arguments>
  <operators>
    <operator id="group" operator="Group">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="vertex_b"/>
      <addon operator="sum" key="vertex_a" attr="total"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check_sources(
        wf,
        &[("graph_edge.xml", GRAPH_EDGE)],
        &CheckContext::default(),
    );
    assert_diag(&a, Code::P010, span_of(wf, "<addon", 0));
}

#[test]
fn p011_unknown_format_operator() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out" format="zip"/>
      <param name="key" type="KeyId" value="seq_size"/>"#,
    );
    let a = check(&wf);
    assert_diag(
        &a,
        Code::P011,
        span_of(&wf, r#"<param name="outputPath""#, 0),
    );
}

#[test]
fn p011_group_over_packed_input() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
  </arguments>
  <operators>
    <operator id="g1" operator="Group">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="/packed" format="pack"/>
      <param name="key" type="KeyId" value="vertex_b"/>
    </operator>
    <operator id="g2" operator="Group">
      <param name="inputPath" type="String" value="/packed"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="vertex_a"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check_sources(
        wf,
        &[("graph_edge.xml", GRAPH_EDGE)],
        &CheckContext::default(),
    );
    assert_diag(&a, Code::P011, span_of(wf, r#"<operator id="g2""#, 0));
}

#[test]
fn p012_unknown_distribution_policy() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="distrPolicy" type="DistrPolicy" value="hashed"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert_diag(&a, Code::P012, span_of(wf, r#"value="hashed""#, 0));
}

#[test]
fn p012_zero_partitions() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="0"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert_diag(&a, Code::P012, span_of(wf, r#"value="0""#, 0));
}

#[test]
fn p013_unregistered_operator() {
    let wf = sort_wf("").replace("operator=\"Sort\"", "operator=\"Shuffle\"");
    let a = check(&wf);
    assert_diag(&a, Code::P013, span_of(&wf, r#"<operator id="sort""#, 0));
    // Registering the name silences it.
    let ctx = CheckContext {
        extra_operators: ["Shuffle".to_string()].into_iter().collect(),
        ..Default::default()
    };
    let a = check_sources(&wf, &[("blast_db.xml", BLAST_DB)], &ctx);
    assert!(a.diagnostics.iter().all(|d| d.code != Code::P013));
}

#[test]
fn p015_duplicate_argument() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert_diag(
        &a,
        Code::P015,
        span_of(wf, r#"<param name="input_path""#, 1),
    );
}

#[test]
fn p015_duplicate_input_config_id() {
    let a = check_sources(
        FIG8,
        &[("a.xml", BLAST_DB), ("b.xml", BLAST_DB)],
        &CheckContext::default(),
    );
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::P015)
        .expect("P015");
    assert_eq!(d.doc, "blast_db");
}

#[test]
fn p016_malformed_reference() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="cost: $5"/>
      <param name="key" type="KeyId" value="seq_size"/>"#,
    );
    let a = check(&wf);
    assert_diag(&a, Code::P016, span_of(&wf, r#"value="cost: $5""#, 0));
}

#[test]
fn p017_unresolvable_input_path() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="/nowhere"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_size"/>"#,
    );
    let a = check(&wf);
    assert_diag(&a, Code::P017, span_of(&wf, r#"value="/nowhere""#, 0));
}

#[test]
fn p017_missing_format_configuration() {
    // FIG8 declares format="blast_db" but no InputData document is given.
    let a = check_sources(FIG8, &[], &CheckContext::default());
    assert_diag(
        &a,
        Code::P017,
        span_of(FIG8, r#"<param name="input_path""#, 0),
    );
}

#[test]
fn p018_replication_exceeds_cluster() {
    let ctx = CheckContext {
        nodes: Some(3),
        replication: Some(5),
        ..Default::default()
    };
    let a = check_sources(FIG8, &[("blast_db.xml", BLAST_DB)], &ctx);
    assert_diag(&a, Code::P018, span_of(FIG8, "<workflow", 0));
}

#[test]
fn p019_invalid_input_schema() {
    // A String field inside a binary input has no fixed width.
    let bad = r#"<input id="bad_bin" name="broken">
  <input_format>binary</input_format>
  <element>
    <value name="offset" type="integer"/>
    <value name="label" type="String"/>
  </element>
</input>"#;
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="offset"/>"#,
    )
    .replace("format=\"blast_db\"", "format=\"bad_bin\"");
    let a = check_sources(&wf, &[("bad.xml", bad)], &CheckContext::default());
    let span = span_of(bad, r#"<value name="label""#, 0);
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::P019)
        .expect("P019");
    assert_eq!(d.doc, "bad_bin");
    assert_eq!(d.span, span);
}

// ---- W0xx: warnings --------------------------------------------------

#[test]
fn w001_dead_output() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/dead"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/live"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="/live"/>
      <param name="outputPath" type="String" value="/final"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert!(!a.has_errors());
    assert_diag(&a, Code::W001, span_of(wf, r#"value="/dead""#, 0));
}

#[test]
fn w002_fewer_partitions_than_nodes() {
    let ctx = CheckContext {
        nodes: Some(8),
        args: HashMap::from([
            ("input_path".to_string(), "/data/in".to_string()),
            ("output_path".to_string(), "/data/out".to_string()),
            ("num_partitions".to_string(), "4".to_string()),
        ]),
        ..Default::default()
    };
    let a = check_sources(FIG8, &[("blast_db.xml", BLAST_DB)], &ctx);
    assert!(!a.has_errors());
    assert_diag(
        &a,
        Code::W002,
        span_of(FIG8, r#"value="$num_partitions""#, 0),
    );
}

/// W010: a keyed job's reducers on N nodes must be a positive multiple
/// of N, or some node reduces nothing (R < N) or more than its share of
/// key ranges (N does not divide R). One literal, no default: R is the
/// literal, else one reducer per node.
#[test]
fn w010_reducers_not_a_multiple_of_nodes() {
    let ctx = CheckContext {
        nodes: Some(4),
        args: HashMap::from([
            ("input_path".to_string(), "/data/in".to_string()),
            ("output_path".to_string(), "/data/out".to_string()),
            ("num_partitions".to_string(), "8".to_string()),
        ]),
        ..Default::default()
    };
    let literal = r#" num_reducers="$num_reducers""#;
    let w010 = |attr: &str| {
        let wf = FIG8.replace(literal, attr);
        let a = check_sources(&wf, &[("blast_db.xml", BLAST_DB)], &ctx);
        assert!(
            !a.has_errors(),
            "{}",
            papar_check::render_text(&a.diagnostics)
        );
        let found: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::W010)
            .collect();
        if let Some(d) = found.first() {
            assert_eq!(found.len(), 1);
            assert_eq!(d.span, span_of(&wf, r#"<operator id="sort""#, 0));
        }
        found.first().map(|d| d.message.clone())
    };
    assert_eq!(
        w010(r#" num_reducers="2""#).as_deref(),
        Some(
            "job 'sort' has 2 reducers on a 4-node cluster: 2 nodes reduce nothing \
             (use a multiple of 4)"
        )
    );
    assert_eq!(
        w010(r#" num_reducers="6""#).as_deref(),
        Some(
            "job 'sort' has 6 reducers on a 4-node cluster: the busiest node reduces \
             2 of 6 ranges, 1.33x its fair share (use a multiple of 4)"
        )
    );
    for quiet in [r#" num_reducers="4""#, r#" num_reducers="8""#, ""] {
        assert_eq!(w010(quiet), None, "{quiet:?}");
    }
}

#[test]
fn w003_records_not_divisible_by_partitions() {
    // The strict stride permutation L_m^{km} requires m | km.
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>
  </operators>
</workflow>"#;
    let ctx = CheckContext {
        records: Some(10),
        ..Default::default()
    };
    let a = check_sources(wf, &[("blast_db.xml", BLAST_DB)], &ctx);
    assert!(!a.has_errors());
    let span = span_of(wf, r#"value="4""#, 0);
    assert_diag(&a, Code::W003, span);
    // Divisible counts stay silent.
    let ctx = CheckContext {
        records: Some(12),
        ..Default::default()
    };
    let a = check_sources(wf, &[("blast_db.xml", BLAST_DB)], &ctx);
    assert!(a.diagnostics.iter().all(|d| d.code != Code::W003));
}

#[test]
fn w004_index_routed_distribute_over_sort_output() {
    // Figure 8 itself: roundRobin over the sort output. The determinism
    // lint fires, along with the fusion note (W006) for the streamed
    // intermediate — the only diagnostics on the paper's own example.
    let a = check(FIG8);
    assert_eq!(
        a.diagnostics.len(),
        2,
        "{}",
        papar_check::render_text(&a.diagnostics)
    );
    assert_diag(&a, Code::W004, span_of(FIG8, r#"<operator id="distr""#, 0));
    assert_diag(
        &a,
        Code::W006,
        span_of(FIG8, r#"value="/user/sort_output""#, 0),
    );
}

#[test]
fn w006_fusible_single_consumer_intermediate() {
    // Figure 8's sort output feeds only the index-routed distribute: the
    // physical planner streams it, and the lint says so at the producer's
    // output declaration.
    let a = check(FIG8);
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == Code::W006)
        .expect("W006");
    assert!(d.message.contains("/user/sort_output"), "{}", d.message);
    assert!(d.message.contains("--no-fuse"), "{}", d.message);
    // A second consumer of the intermediate defeats streaming: no W006.
    let two_readers = FIG8.replace(
        "  </operators>",
        r#"    <operator id="audit" operator="Distribute">
      <param name="inputPath" type="String" value="/user/sort_output"/>
      <param name="outputPath" type="String" value="/audit"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>
  </operators>"#,
    );
    let a = check(&two_readers);
    assert!(
        a.diagnostics.iter().all(|d| d.code != Code::W006),
        "{}",
        papar_check::render_text(&a.diagnostics)
    );
    // A value-routed policy (graphVertexCut) cannot fuse with a sort:
    // the pair keeps both jobs and the lint stays silent.
    let vertex_cut = FIG8.replace("roundRobin", "graphVertexCut");
    let a = check(&vertex_cut);
    assert!(
        a.diagnostics.iter().all(|d| d.code != Code::W006),
        "{}",
        papar_check::render_text(&a.diagnostics)
    );
}

#[test]
fn w005_unused_argument() {
    let wf = r#"<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="spare" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
  </operators>
</workflow>"#;
    let a = check(wf);
    assert!(!a.has_errors());
    assert_diag(&a, Code::W005, span_of(wf, r#"<param name="spare""#, 0));
}

// ---- clean runs ------------------------------------------------------

#[test]
fn fig10_analyzes_clean_symbolically() {
    let a = check_sources(
        FIG10,
        &[("graph_edge.xml", GRAPH_EDGE)],
        &CheckContext::default(),
    );
    // Error-free; the only note is the fusion lint on the group→split
    // intermediate.
    assert_w006_only(&a, FIG10, r#"value="/tmp/group""#);
    // All three jobs inferred, with metadata on every built-in output.
    assert_eq!(a.jobs.len(), 3);
    let group = &a.jobs[0];
    let meta = group.outputs[0].1.as_ref().expect("group meta");
    assert_eq!(meta.format, Format::Packed);
    assert!(meta.schema.index_of("indegree").is_some());
}

#[test]
fn fig10_analyzes_clean_with_arguments() {
    let ctx = CheckContext {
        nodes: Some(4),
        args: HashMap::from([
            ("input_file".to_string(), "/data/edges".to_string()),
            ("output_path".to_string(), "/data/parts".to_string()),
            ("num_partitions".to_string(), "4".to_string()),
            ("threshold".to_string(), "4".to_string()),
        ]),
        ..Default::default()
    };
    let a = check_sources(FIG10, &[("graph_edge.xml", GRAPH_EDGE)], &ctx);
    assert_w006_only(&a, FIG10, r#"value="/tmp/group""#);
}

// ---- plan-invariant verification ------------------------------------

fn fig8_args() -> HashMap<String, String> {
    HashMap::from([
        ("input_path".to_string(), "/data/env_nr".to_string()),
        ("output_path".to_string(), "/data/parts".to_string()),
        ("num_partitions".to_string(), "4".to_string()),
    ])
}

#[test]
fn analysis_agrees_with_the_planner_on_fig8() {
    let args = fig8_args();
    let ctx = CheckContext {
        args: args.clone(),
        ..Default::default()
    };
    let wf = WorkflowConfig::parse_str(FIG8).unwrap();
    let input = InputConfig::parse_str(BLAST_DB).unwrap();
    let analysis = analyze(&wf, std::slice::from_ref(&input), &ctx);
    assert!(!analysis.has_errors());
    let plan = Planner::new(wf, vec![input]).bind(&args).unwrap();
    assert_eq!(verify_plan(&analysis, &plan), vec![]);
}

#[test]
fn analysis_agrees_with_the_planner_on_fig10() {
    let args = HashMap::from([
        ("input_file".to_string(), "/data/edges".to_string()),
        ("output_path".to_string(), "/data/parts".to_string()),
        ("num_partitions".to_string(), "4".to_string()),
        ("threshold".to_string(), "4".to_string()),
    ]);
    let ctx = CheckContext {
        args: args.clone(),
        ..Default::default()
    };
    let wf = WorkflowConfig::parse_str(FIG10).unwrap();
    let input = InputConfig::parse_str(GRAPH_EDGE).unwrap();
    let analysis = analyze(&wf, std::slice::from_ref(&input), &ctx);
    assert!(!analysis.has_errors());
    let plan = Planner::new(wf, vec![input]).bind(&args).unwrap();
    assert_eq!(verify_plan(&analysis, &plan), vec![]);
}

#[test]
fn p099_on_divergent_inference() {
    let args = fig8_args();
    let ctx = CheckContext {
        args: args.clone(),
        ..Default::default()
    };
    let wf = WorkflowConfig::parse_str(FIG8).unwrap();
    let input = InputConfig::parse_str(BLAST_DB).unwrap();
    let mut analysis = analyze(&wf, std::slice::from_ref(&input), &ctx);
    let plan = Planner::new(wf, vec![input]).bind(&args).unwrap();
    // Sabotage the inference: flip the sort output's format.
    let meta = analysis.jobs[0].outputs[0].1.as_mut().unwrap();
    meta.format = Format::Packed;
    let divergences = verify_plan(&analysis, &plan);
    assert!(!divergences.is_empty());
    assert!(divergences.iter().all(|d| d.code == Code::P099));
}

#[test]
fn physical_plans_verify_clean_for_the_example_configs() {
    // Every physical plan the planner can emit for Fig 8 and Fig 10 —
    // fused and --no-fuse, across cluster shapes — must pass P099.
    let fig8 = Planner::new(
        WorkflowConfig::parse_str(FIG8).unwrap(),
        vec![InputConfig::parse_str(BLAST_DB).unwrap()],
    )
    .bind(&fig8_args())
    .unwrap();
    let fig10 = Planner::new(
        WorkflowConfig::parse_str(FIG10).unwrap(),
        vec![InputConfig::parse_str(GRAPH_EDGE).unwrap()],
    )
    .bind(&HashMap::from([
        ("input_file".to_string(), "/data/edges".to_string()),
        ("output_path".to_string(), "/data/parts".to_string()),
        ("num_partitions".to_string(), "4".to_string()),
        ("threshold".to_string(), "4".to_string()),
    ]))
    .unwrap();
    for plan in [&fig8, &fig10] {
        for nodes in [1, 3, 4, 8] {
            for fuse in [true, false] {
                let phys = lower(plan, nodes, fuse);
                assert_eq!(
                    verify_lowering(plan, &phys, nodes),
                    vec![],
                    "workflow '{}', {nodes} nodes, fuse={fuse}",
                    plan.id
                );
            }
        }
    }
}

#[test]
fn p099_on_corrupted_physical_plan() {
    let plan = Planner::new(
        WorkflowConfig::parse_str(FIG8).unwrap(),
        vec![InputConfig::parse_str(BLAST_DB).unwrap()],
    )
    .bind(&fig8_args())
    .unwrap();
    // Drop a stage: the coverage invariant breaks.
    let mut phys = lower(&plan, 3, false);
    phys.stages.pop();
    let diags = verify_lowering(&plan, &phys, 3);
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.code == Code::P099));
    // Claim the workflow output is streamed: the elision invariant breaks.
    let mut phys = lower(&plan, 3, true);
    assert!(matches!(
        phys.stages[0].kind,
        StageKind::FusedSortDistribute { .. }
    ));
    phys.stages[0].elided.push(plan.output_path.clone());
    let diags = verify_lowering(&plan, &phys, 3);
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::P099 && d.message.contains("workflow output")),
        "{}",
        papar_check::render_text(&diags)
    );
}

// ---- serialization golden --------------------------------------------

#[test]
fn diagnostics_round_trip_through_json() {
    // A workflow tripping several distinct codes at once.
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_fil"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_siz"/>
      <addon operator="median" key="seq_size" attr="m"/>"#,
    );
    let a = check(&wf);
    assert!(a.diagnostics.len() >= 2);
    let text = json::to_json(&a.diagnostics);
    let parsed = json::from_json(&text).expect("round trip");
    assert_eq!(parsed, a.diagnostics);
}

#[test]
fn rendered_text_is_stable() {
    let wf = sort_wf(
        r#"      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="seq_siz"/>"#,
    );
    let a = check(&wf);
    let span = span_of(&wf, r#"value="seq_siz""#, 0);
    let line = a.diagnostics[0].to_string();
    assert_eq!(
        line,
        format!(
            "error[P006]: workflow:{}:{}: operator 'sort': no field 'seq_siz' in schema \
             [seq_start, seq_size, desc_start, desc_size]",
            span.line, span.col
        )
    );
}
