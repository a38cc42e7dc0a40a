//! Registering a user-defined operator (paper Section III-B, Figure 7).
//!
//! PaPar lets users extend the operator set: implement the operator,
//! describe its signature in a `<prog>` registration document, and name it
//! from a workflow. This example adds a `Dedup` operator that drops
//! duplicate records (a common pre-partitioning cleanup), then runs a
//! workflow of `Dedup -> Sort -> Distribute`.
//!
//! ```sh
//! cargo run --example custom_operator
//! ```

use papar::core::operator::{CustomJobCtx, CustomOperator, OperatorRegistry};
use papar::prelude::*;
use papar::record::batch::{Batch, Dataset};
use papar::record::rec;
use papar_config::OperatorRegistration;
use papar_mr::stats::JobStats;
use std::collections::HashMap;
use std::sync::Arc;

/// A *global* duplicate-removal operator implemented as a full MapReduce
/// job: records shuffle by their rendered value, so equal records meet on
/// one reducer no matter which node they started on, and the reducer keeps
/// the first of each run.
struct DedupOperator;

impl CustomOperator for DedupOperator {
    fn run(
        &self,
        cluster: &mut papar::mr::Cluster,
        ctx: &CustomJobCtx,
    ) -> papar::core::Result<JobStats> {
        use papar::mr::engine::{FnMapper, FnReducer, HashPartitioner};
        use papar::mr::{Emit, EntryRef, MapReduceJob, Pairs};
        let mapper = FnMapper(
            |_: &papar::mr::TaskCtx, inputs: &[papar::mr::MapInput], out: &mut Emit<'_>| {
                // The rendered tuple is the dedup key: equal records
                // render equally.
                let key = |r: &papar::record::Record| Value::from(r.display_tuple());
                for mi in inputs {
                    // A fragment holds decoded records, rows, or packed
                    // groups whose members are rows: `EntryRef::all`
                    // borrows each entry whatever the form, and a row
                    // decodes only where its values are read. Entries are
                    // borrowed; the emitter encodes them in place.
                    for entry in EntryRef::all(&mi.data.batch) {
                        match entry {
                            EntryRef::Rec(r) => out.push(&key(r), entry)?,
                            EntryRef::Row(row) => out.push(&key(&row.to_record()), entry)?,
                            EntryRef::Packed(group) => {
                                for row in group.members.iter() {
                                    out.push(&key(&row.to_record()), EntryRef::Row(row))?;
                                }
                            }
                        }
                    }
                }
                Ok(())
            },
        );
        let reducer = FnReducer(|_: &papar::mr::TaskCtx, pairs: Pairs<'_>| {
            // Pairs arrive key-sorted; keep the first record of each
            // key-equal run, decoding nothing else.
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
            // The runner drops this job's input after the stage if it
            // was the last reader; nothing to release mid-job here.
            release: &[],
        };
        cluster.run_job(&job).map_err(papar::core::CoreError::from)
    }
}

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

/// The Figure 7-style registration for Dedup.
const DEDUP_REGISTRATION: &str = r#"
<prog id="Dedup" type="operator" name="duplicate record removal">
  <import classpath="/user/ops/dedup" package="com.example.dedup" class="Dedup"/>
  <arguments>
    <param name="inputPath" type="String"/>
    <param name="outputPath" type="String"/>
  </arguments>
</prog>"#;

const WORKFLOW_CFG: &str = r#"
<workflow id="dedup_sort" name="dedup, sort, distribute">
  <arguments>
    <param name="input_path" type="hdfs" format="pairs"/>
    <param name="output_path" type="hdfs" format="pairs"/>
    <param name="num_partitions" type="integer" value="2"/>
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
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Register the custom operator under the id the workflow names.
    let registration = OperatorRegistration::parse_str(DEDUP_REGISTRATION)?;
    println!(
        "registered operator '{}' from {}/{}",
        registration.id, registration.package, registration.class
    );
    let mut registry = OperatorRegistry::new();
    registry.register("Dedup", Arc::new(DedupOperator), Some(registration))?;

    let planner = Planner::with_registry(
        WorkflowConfig::parse_str(WORKFLOW_CFG)?,
        vec![InputConfig::parse_str(INPUT_CFG)?],
        Arc::new(registry),
    );
    let mut args = HashMap::new();
    args.insert("input_path".into(), "/in".into());
    args.insert("output_path".into(), "/out".into());
    let plan = planner.bind(&args)?;

    let runner = WorkflowRunner::new(plan);
    let mut cluster = Cluster::new(2);
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let records = vec![
        rec!["gauss", 77],
        rec!["euler", 89],
        rec!["gauss", 77], // duplicate
        rec!["noether", 95],
        rec!["euler", 89], // duplicate
        rec!["hilbert", 60],
    ];
    runner.scatter_input(
        &mut cluster,
        "/in",
        Dataset::new(schema, Batch::Flat(records)),
    )?;
    let report = runner.run(&mut cluster)?;
    println!(
        "dedup job: {} records in, {} out",
        report.jobs[0].records_in, report.jobs[0].records_out
    );

    let parts = cluster.collect(&runner.plan().output_path)?;
    for (i, p) in parts.iter().enumerate() {
        let rows: Vec<String> = p
            .batch
            .clone()
            .flatten()
            .iter()
            .map(|r| r.display_tuple())
            .collect();
        println!("partition {i}: {}", rows.join(" "));
    }
    Ok(())
}
