//! A user-defined operator (paper Section III-B, Figure 7) runs on the
//! engine like a built-in one: it is traced once, by the engine, and it
//! occupies exactly one fault-schedule slot, so a crash addressed to it
//! fires and recovers like a crash on any other job.

use papar::core::exec::{ExecOptions, WorkflowReport, WorkflowRunner};
use papar::core::operator::{CustomJobCtx, CustomOperator, OperatorRegistry};
use papar::core::plan::Planner;
use papar::mr::engine::{FnMapper, FnReducer, HashPartitioner};
use papar::mr::{Cluster, Emit, EntryRef, Fault, FaultPlan, MapInput, MapReduceJob, Pairs};
use papar::mr::{TaskCtx, TaskPhase};
use papar::record::batch::{Batch, Dataset};
use papar::record::{rec, wire, Record, Value};
use papar_config::{InputConfig, WorkflowConfig};
use papar_mr::stats::JobStats;
use std::collections::HashMap;
use std::sync::Arc;

const INPUT_CFG: &str = r#"
<input id="pairs" name="pairs">
  <input_format>text</input_format>
  <element>
    <value name="name" type="String"/>
    <delimiter value=" "/>
    <value name="score" type="integer"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

const WORKFLOW_CFG: &str = r#"
<workflow id="dedup_sort" name="dedup, sort, distribute">
  <arguments>
    <param name="input_path" type="hdfs" format="pairs"/>
    <param name="output_path" type="hdfs" format="pairs"/>
  </arguments>
  <operators>
    <operator id="dedup" operator="Dedup">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/deduped"/>
    </operator>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$dedup.outputPath"/>
      <param name="outputPath" type="String" value="/tmp/sorted"/>
      <param name="key" type="KeyId" value="score"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="3"/>
    </operator>
  </operators>
</workflow>"#;

/// Global duplicate removal as one engine job, like
/// `examples/custom_operator.rs`: records shuffle by their rendered
/// value, and each reducer keeps the first of every key-equal run.
struct DedupOperator;

impl CustomOperator for DedupOperator {
    fn run(&self, cluster: &mut Cluster, ctx: &CustomJobCtx) -> papar::core::Result<JobStats> {
        let mapper = FnMapper(|_: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for mi in inputs {
                for entry in EntryRef::all(&mi.data.batch) {
                    let EntryRef::Rec(r) = entry else {
                        return Err(papar::mr::MrError::msg("dedup reads flat records"));
                    };
                    out.push(&Value::from(r.display_tuple()), entry)?;
                }
            }
            Ok(())
        });
        let reducer = FnReducer(|_: &TaskCtx, pairs: Pairs<'_>| {
            let mut records = Vec::new();
            for run in pairs.runs() {
                if let Some(pair) = run?.iter().next() {
                    pair?.1.decode_into(&mut records)?;
                }
            }
            Ok(vec![Batch::Flat(records)])
        });
        let job = MapReduceJob {
            name: ctx.id.clone(),
            inputs: ctx.inputs.clone(),
            output: ctx.output.clone(),
            num_reducers: ctx.num_reducers,
            map_output_schema: ctx.input_schema.clone(),
            output_schema: ctx.input_schema.clone(),
            mapper: &mapper,
            partitioner: &HashPartitioner,
            reducer: &reducer,
            sort_by_key: true,
            descending: false,
            compress_key: None,
            release: &[],
        };
        Ok(cluster.run_job(&job)?)
    }
}

/// Sixty records, every third one a duplicate of an earlier record.
fn records() -> Vec<Record> {
    (0..60)
        .map(|i| {
            let k = if i % 3 == 2 { i - 1 } else { i };
            rec![format!("v{k}"), k * 37 % 23]
        })
        .collect()
}

/// Run Dedup → Sort → Distribute on `cluster`: the partitions as wire
/// bytes, and the report.
fn run(mut cluster: Cluster, fuse: bool) -> (Vec<Vec<u8>>, WorkflowReport) {
    let mut registry = OperatorRegistry::new();
    registry
        .register("Dedup", Arc::new(DedupOperator), None)
        .unwrap();
    let planner = Planner::with_registry(
        WorkflowConfig::parse_str(WORKFLOW_CFG).unwrap(),
        vec![InputConfig::parse_str(INPUT_CFG).unwrap()],
        Arc::new(registry),
    );
    let args: HashMap<String, String> = [("input_path", "/in"), ("output_path", "/out")]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let options = ExecOptions {
        trace: true,
        fuse,
        ..ExecOptions::default()
    };
    let runner = WorkflowRunner::with_options(planner.bind(&args).unwrap(), options);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(records())),
        )
        .unwrap();
    let report = runner.run(&mut cluster).unwrap();
    let partitions = (cluster.collect("/out").unwrap().into_iter())
        .map(|d| {
            let mut buf = Vec::new();
            wire::encode_batch(&d.batch, &d.schema, &mut buf).unwrap();
            buf
        })
        .collect();
    (partitions, report)
}

#[test]
fn a_custom_job_is_traced_once_per_stage() {
    for (fuse, stages) in [
        (true, &["dedup", "sort+distr"][..]),
        (false, &["dedup", "sort", "distr"][..]),
    ] {
        let (_, report) = run(Cluster::new(3), fuse);
        let trace = report.trace.clone().expect("the run was traced");
        let names: Vec<&str> = trace.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, stages, "fuse={fuse}");
        assert_eq!(report.jobs.len(), stages.len(), "fuse={fuse}");
        // The profile's rows add up to the reported makespan.
        assert_eq!(trace.total_virt(), report.total_sim_time(), "fuse={fuse}");
    }
}

#[test]
fn a_crash_on_a_custom_jobs_slot_fires_and_recovers() {
    let crash = |job: usize| {
        let plan = FaultPlan::new(vec![Fault::NodeCrash {
            node: 1,
            job,
            phase: TaskPhase::Map,
        }]);
        Cluster::new(3).with_replication(1).with_fault_plan(plan)
    };
    for fuse in [true, false] {
        let (clean, _) = run(Cluster::new(3), fuse);
        // Slot 0 is the Dedup job's own.
        let (out, report) = run(crash(0), fuse);
        assert_eq!(report.faults_injected(), 1, "fuse={fuse}");
        assert_eq!(report.jobs[0].recovery.faults_injected, 1, "fuse={fuse}");
        assert_eq!(out, clean, "fuse={fuse}");
    }
    // Unfused, the last logical job (distribute) is a job of its own: a
    // crash on its slot fires too.
    let (clean, _) = run(Cluster::new(3), false);
    let (out, report) = run(crash(2), false);
    assert_eq!(report.faults_injected(), 1);
    assert_eq!(report.jobs[2].recovery.faults_injected, 1);
    assert_eq!(out, clean);
}
