//! Adaptive-planner ablation: the cost-based planner (`--adaptive`)
//! measured against the workflow's literal knobs on a uniform and an
//! adversarially skewed key distribution.
//!
//! The workflow is the paper's Sort→Distribute shape with a
//! `num_reducers="16"` literal on a 4-node cluster. Each row compares,
//! in absolute terms, the busiest reducer in records, the sort stage's
//! deterministic time and the shuffled bytes with the literal plan's;
//! none may be worse, and the partitions must be byte-identical. The
//! busiest reducer over each plan's own fair share is printed beside the
//! records only: that share shrinks as a plan adds reducers, so the
//! ratio alone rewards the plan with fewer. Besides the console table
//! the experiment writes `BENCH_adaptive.json` for the CI gate.

use papar_core::exec::{ExecOptions, WorkflowReport};
use papar_core::plan::Planner;
use papar_mr::Cluster;
use papar_record::{rec, Record};

use crate::datasets::Scale;
use crate::report::Table;
use crate::workflows::{run_raw, BLAST_INPUT_CFG};

/// Nodes in the simulated cluster.
pub const NODES: usize = 4;

/// Partitions produced by each run.
pub const PARTITIONS: usize = 8;

/// The reducer literal the workflow document carries.
pub const LITERAL_REDUCERS: usize = 16;

/// The skewed distribution's hot key (~half of all records).
pub const HOT_KEY: i32 = 7;

/// Where the machine-readable results land, relative to the working
/// directory.
pub const JSON_PATH: &str = "BENCH_adaptive.json";

/// The Sort→Distribute workflow with the reducer literal baked in — the
/// knob the adaptive planner is allowed to override because the fused
/// Distribute routes by position, not by key range.
fn workflow() -> String {
    format!(
        r#"
<workflow id="adaptive_ablation" name="sort partition, mis-tuned reducer literal">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort" num_reducers="{LITERAL_REDUCERS}">
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
</workflow>"#
    )
}

/// xorshift64: deterministic, dependency-free pseudo-randomness.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A record in the BLAST index schema with `seq_size` (the sort key) set
/// to `key`.
fn record(i: usize, key: i32) -> Record {
    rec![i as i32, key, (i * 8) as i32, 16]
}

/// Adversarially skewed keys: ~half the records share [`HOT_KEY`]; the
/// rest follow a Zipf-ish tail (the product of two uniform draws
/// concentrates mass on small keys, with a long sparse upper range).
pub fn skewed_records(n: usize) -> Vec<Record> {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|i| {
            let key = if xorshift(&mut rng).is_multiple_of(2) {
                HOT_KEY
            } else {
                let a = xorshift(&mut rng) % 1024;
                let b = xorshift(&mut rng) % 1024;
                1 + ((a * b) >> 5) as i32
            };
            record(i, key)
        })
        .collect()
}

/// Uniform keys over a wide range: the distribution the literal knobs
/// were presumably tuned for.
pub fn uniform_records(n: usize) -> Vec<Record> {
    let mut rng = 0x0123_4567_89ab_cdefu64;
    (0..n)
        .map(|i| record(i, (xorshift(&mut rng) % 100_000) as i32))
        .collect()
}

/// One run of the ablation workflow.
pub struct AblationRun {
    /// The engine's report (trace enabled).
    pub report: WorkflowReport,
    /// The output partitions, for byte-identity comparison.
    pub partitions: Vec<Vec<Record>>,
}

/// Run the workflow over `records` with or without the adaptive planner.
/// Single-threaded so the trace's virtual times are stable; tracing on so
/// the per-reducer skew histogram is available.
pub fn run_ablation(records: &[Record], adaptive: bool) -> AblationRun {
    let planner = Planner::from_xml(&workflow(), &[BLAST_INPUT_CFG]).expect("config");
    let options = ExecOptions {
        threads: Some(1),
        trace: true,
        adaptive,
        ..ExecOptions::default()
    };
    let raw = run_raw(
        &planner,
        &[
            ("input_path", "/db/in".to_string()),
            ("output_path", "/db/out".to_string()),
            ("num_partitions", PARTITIONS.to_string()),
        ],
        records.to_vec(),
        Cluster::new(NODES),
        options,
        None,
    );
    AblationRun {
        report: raw.report,
        partitions: raw.output.into_iter().map(|d| d.batch.flatten()).collect(),
    }
}

/// What a run's sort stage shipped, read from the trace of the job
/// named `sort` (or the fused `sort+…` stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SortLoad {
    /// Reducers the engine actually ran.
    pub reducers: usize,
    /// Records the busiest reducer received (from the skew histogram).
    pub max_records: u64,
    /// The busiest reducer over the plan's own fair share
    /// (`records / reducers`); printed beside `max_records` only.
    pub max_over_fair: f64,
    /// The stage's deterministic makespan.
    pub det_ns: u64,
}

/// The sort stage's [`SortLoad`] in a traced run over `total_records`.
pub fn sort_load(report: &WorkflowReport, total_records: u64) -> SortLoad {
    let trace = report.trace.as_ref().expect("trace enabled");
    let job = trace
        .jobs
        .iter()
        .find(|j| j.name == "sort" || j.name.starts_with("sort+"))
        .expect("sort stage trace");
    let skew = job.skew.as_ref().expect("sort stage skew histogram");
    let reducers = skew.records.len();
    let max_records = skew.records.iter().copied().max().unwrap_or(0);
    let fair = total_records as f64 / reducers.max(1) as f64;
    SortLoad {
        reducers,
        max_records,
        max_over_fair: max_records as f64 / fair.max(1.0),
        det_ns: job.det_ns(),
    }
}

/// One input distribution's literal-vs-adaptive measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Input distribution label.
    pub input: &'static str,
    /// The sort stage under the adaptive plan.
    pub adaptive: SortLoad,
    /// The sort stage under the literal plan.
    pub literal: SortLoad,
    /// Bytes shuffled between distinct nodes (adaptive, literal).
    pub shuffled: (u64, u64),
    /// Whether the partitions matched byte-for-byte.
    pub identical: bool,
}

impl Row {
    /// Whether the adaptive plan shipped byte-identical partitions and no
    /// heavier busiest reducer, no slower sort stage and no more shuffled
    /// bytes than the literal plan.
    pub fn no_worse(&self) -> bool {
        let (a, l) = (&self.adaptive, &self.literal);
        self.identical
            && a.max_records <= l.max_records
            && a.det_ns <= l.det_ns
            && self.shuffled.0 <= self.shuffled.1
    }
}

fn measure(input: &'static str, records: Vec<Record>) -> Row {
    let n = records.len() as u64;
    let literal = run_ablation(&records, false);
    let adaptive = run_ablation(&records, true);
    Row {
        input,
        adaptive: sort_load(&adaptive.report, n),
        literal: sort_load(&literal.report, n),
        shuffled: (
            adaptive.report.total_shuffled_bytes(),
            literal.report.total_shuffled_bytes(),
        ),
        identical: adaptive.partitions == literal.partitions,
    }
}

/// Both distributions' rows.
pub fn rows(scale: &Scale) -> Vec<Row> {
    let n = scale.env_nr_sequences.max(1_000);
    vec![
        measure("skewed (zipf + hot key)", skewed_records(n)),
        measure("uniform", uniform_records(n)),
    ]
}

/// Serialize the rows as the `BENCH_adaptive.json` document.
pub fn to_json(rows: &[Row]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"adaptive-planner-ablation\",\n");
    s.push_str(&format!("  \"nodes\": {NODES},\n"));
    s.push_str(&format!("  \"literal_reducers\": {LITERAL_REDUCERS},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (a, l) = (&r.adaptive, &r.literal);
        s.push_str(&format!(
            "    {{\"input\": \"{}\", \"adaptive_reducers\": {}, \"literal_reducers\": {}, \
             \"adaptive_max_records\": {}, \"literal_max_records\": {}, \
             \"adaptive_sort_det_ns\": {}, \"literal_sort_det_ns\": {}, \
             \"adaptive_shuffled_bytes\": {}, \"literal_shuffled_bytes\": {}, \
             \"adaptive_max_over_fair\": {:.3}, \"literal_max_over_fair\": {:.3}, \
             \"identical\": {}}}{}\n",
            r.input,
            a.reducers,
            l.reducers,
            a.max_records,
            l.max_records,
            a.det_ns,
            l.det_ns,
            r.shuffled.0,
            r.shuffled.1,
            a.max_over_fair,
            l.max_over_fair,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Render the ablation table and write [`JSON_PATH`]. Fails the bench if
/// the adaptive plan ever changes the output bytes, or ships a heavier
/// busiest reducer, a slower sort stage or more shuffled bytes than the
/// literal plan, on any input.
pub fn run(scale: &Scale) -> Table {
    let rs = rows(scale);
    let mut t = Table::new(
        "Adaptive planner ablation: --adaptive vs literal knobs",
        &[
            "input",
            "sort reducers",
            "busiest reducer, records (max / fair)",
            "sort det_ns",
            "shuffled bytes",
            "output",
        ],
    );
    for r in &rs {
        assert!(
            r.no_worse(),
            "the adaptive plan lost to the literal plan: {r:?}"
        );
        let (a, l) = (&r.adaptive, &r.literal);
        t.row(vec![
            r.input.to_string(),
            format!("{} vs {}", a.reducers, l.reducers),
            format!(
                "{} ({:.2}x) vs {} ({:.2}x)",
                a.max_records, a.max_over_fair, l.max_records, l.max_over_fair
            ),
            format!("{} vs {}", a.det_ns, l.det_ns),
            format!("{} vs {}", r.shuffled.0, r.shuffled.1),
            if r.identical { "identical" } else { "DIVERGED" }.to_string(),
        ]);
    }
    t.note(
        "each cell is --adaptive vs the workflow's literal knobs \
         (num_reducers=16 on 4 nodes); `papar plan --explain --adaptive` \
         shows the rationale behind the chosen reducer count",
    );
    match std::fs::write(JSON_PATH, to_json(&rs)) {
        Ok(()) => t.note(format!("machine-readable results written to {JSON_PATH}")),
        Err(e) => t.note(format!("could not write {JSON_PATH}: {e}")),
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_record::Value;

    #[test]
    fn skewed_generator_is_deterministic_and_hot() {
        let a = skewed_records(2_000);
        let b = skewed_records(2_000);
        assert_eq!(a, b, "generator must be deterministic");
        let hot = a
            .iter()
            .filter(|r| r.values()[1] == Value::Int(HOT_KEY))
            .count();
        assert!(
            (800..1_200).contains(&hot),
            "~half the records should carry the hot key, got {hot}/2000"
        );
    }

    #[test]
    fn adaptive_never_loses_to_the_literal_on_skewed_input() {
        let r = measure("skewed", skewed_records(4_000));
        assert!(r.no_worse(), "{r:?}");
    }

    #[test]
    fn adaptive_never_loses_to_the_literal_on_uniform_input() {
        let r = measure("uniform", uniform_records(4_000));
        assert!(r.no_worse(), "{r:?}");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let json = to_json(&rows(&Scale::quick()));
        assert!(json.contains("\"adaptive-planner-ablation\""));
        assert_eq!(json.matches("\"input\":").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"adaptive_max_records\""));
        assert!(json.contains("\"literal_sort_det_ns\""));
    }
}
