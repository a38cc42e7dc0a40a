//! Trace determinism: collecting a [`papar::trace::WorkflowTrace`] must
//! follow the same discipline as the engine itself — the Chrome export is
//! derived purely from the deterministic clock and slot-ordered counters,
//! so its bytes cannot depend on how many OS threads ran the workflow,
//! even while faults fire and tasks retry. The `--profile` side of the
//! trace (measured virtual times) must sum exactly to the makespan the
//! report already states.

use mublastp::dbgen::DbSpec;
use papar::core::exec::{ExecOptions, WorkflowReport, WorkflowRunner};
use papar::core::plan::Planner;
use papar::mr::{Cluster, Fault, FaultPlan, RetryPolicy};
use papar::record::batch::{Batch, Dataset};
use papar::trace::WorkflowTrace;
use papar_mr::TaskPhase;
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

const SORT_WORKFLOW: &str = r#"
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

fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// The fixed chaos schedule: crashes in both compute phases plus a
/// dropped exchange transfer, all of which feed the trace's recovery
/// counters.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(vec![
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
    ])
}

/// Run the blast sort+distribute workflow with tracing on, returning the
/// trace and the report's total simulated time.
/// The sort+distribute workflow on 3 nodes under the chaos schedule.
fn run(threads: usize, trace: bool) -> WorkflowReport {
    let planner = Planner::from_xml(SORT_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
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
            trace,
            ..ExecOptions::default()
        },
    );
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let db = DbSpec::env_nr_scaled(300, 7).generate();
    let mut cluster = Cluster::try_new(3)
        .unwrap()
        .with_threads(threads)
        .with_replication(1)
        .with_fault_plan(chaos_plan())
        .with_retry(RetryPolicy::default());
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(db.index_records())),
        )
        .unwrap();
    runner.run(&mut cluster).unwrap()
}

fn traced_run(threads: usize) -> (WorkflowTrace, std::time::Duration) {
    let report = run(threads, true);
    let total = report.total_sim_time();
    (report.trace.expect("tracing was requested"), total)
}

#[test]
fn an_untraced_run_carries_no_trace() {
    assert!(run(2, false).trace.is_none(), "tracing was not requested");
}

#[test]
fn chrome_export_is_byte_identical_across_thread_counts() {
    let (t1, _) = traced_run(1);
    let (t4, _) = traced_run(4);
    let j1 = papar::trace::to_chrome_json(&t1);
    let j4 = papar::trace::to_chrome_json(&t4);
    assert!(!j1.is_empty());
    assert_eq!(
        j1, j4,
        "chrome trace bytes must not depend on the engine's thread count"
    );
    // The *measured* virtual times legitimately vary run to run, but the
    // deterministic side — modeled durations and every counter — must
    // agree too.
    assert_eq!(t1.total_det_ns(), t4.total_det_ns());
    assert_eq!(t1.counters(), t4.counters());
}

#[test]
fn profile_virtual_times_sum_to_the_reported_makespan() {
    let (trace, total_sim) = traced_run(2);
    // Sampling + every job phase, added up span by span, must equal the
    // workflow report's own notion of total simulated time exactly.
    assert_eq!(trace.total_virt(), total_sim);
    // Recovery shows up in the counters: the schedule injects two crashes
    // and one dropped transfer.
    let c = trace.counters();
    assert!(c.crashes >= 2, "both injected crashes must be counted");
    assert!(c.retries >= 2);
    assert!(c.restore_bytes > 0, "crash restores move bytes");
    assert!(c.retransmit_bytes > 0, "the dropped transfer is resent");
    // And the rendered table's total row agrees.
    let table = papar::trace::render_profile(&trace);
    assert!(table.contains("total"), "{table}");
}
