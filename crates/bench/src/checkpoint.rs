//! Checkpoint ablation: what durable stage checkpoints cost on the write
//! path and what they save on resume, on the Figure 8 workflow.
//!
//! The write-path cost is measured two ways: extra wall time against an
//! identical run without `--checkpoint` (averaged per the paper's
//! five-run protocol) and bytes published per stage (fragments plus the
//! manifest, straight off the run directory). The resume side is
//! counter-based: stages restored instead of re-executed and the records
//! those stages would have had to recompute, both taken from the replayed
//! stage stats. Besides the console table the experiment writes
//! `BENCH_checkpoint.json`.

use papar_core::exec::{ExecOptions, WorkflowReport};
use papar_mr::Cluster;
use papar_record::wire;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::datasets::Scale;
use crate::measure;
use crate::report::Table;
use crate::workflows::{blast_plan, run_raw};

/// Nodes in the simulated cluster.
pub const NODES: usize = 4;

/// Partitions produced by each run.
pub const PARTITIONS: usize = 8;

/// Where the machine-readable results land, relative to the working
/// directory.
pub const JSON_PATH: &str = "BENCH_checkpoint.json";

/// One workflow's checkpoint cost/benefit measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workflow label.
    pub workflow: &'static str,
    /// Physical stages the plan compiles to.
    pub stages: usize,
    /// Mean wall time without / with `--checkpoint`.
    pub wall: (Duration, Duration),
    /// Bytes the checkpoint published (fragments + manifest).
    pub ckpt_bytes: u64,
    /// Stages restored (not re-executed) by the resumed run.
    pub stages_resumed: usize,
    /// Input records the restored stages did not have to recompute.
    pub records_saved: u64,
    /// Whether the resumed partitions matched the cold run's bytes.
    pub identical: bool,
}

impl Row {
    /// Checkpointing's wall-time overhead as a percentage.
    pub fn overhead_pct(&self) -> f64 {
        if self.wall.0.is_zero() {
            0.0
        } else {
            (self.wall.1.as_secs_f64() / self.wall.0.as_secs_f64() - 1.0) * 100.0
        }
    }

    /// Bytes published per stage.
    pub fn bytes_per_stage(&self) -> u64 {
        self.ckpt_bytes / self.stages.max(1) as u64
    }
}

/// Run Figure 8 unfused (two stages, so resume has a boundary to skip
/// to), optionally against a checkpoint directory. Returns the partition
/// bytes, the report, and the wall time of scatter + run.
fn run_blast(
    db: &mublastp::dbformat::BlastDb,
    checkpoint: Option<(&Path, bool)>,
) -> (Vec<Vec<u8>>, WorkflowReport, Duration) {
    let (planner, args) = blast_plan("roundRobin", PARTITIONS);
    let options = ExecOptions {
        fuse: false,
        threads: Some(1),
        ..ExecOptions::default()
    };
    let raw = run_raw(
        &planner,
        &args,
        db.index_records(),
        Cluster::new(NODES),
        options,
        checkpoint,
    );
    let partitions = raw
        .output
        .iter()
        .map(|d| {
            let mut buf = Vec::new();
            wire::encode_batch(&d.batch, &d.schema, &mut buf).expect("encode");
            buf
        })
        .collect();
    (partitions, raw.report, raw.scatter_wall + raw.run_wall)
}

fn ckpt_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("papar-bench-ckpt-{tag}-{}", std::process::id()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Measure the Figure 8 row.
pub fn blast_row(scale: &Scale) -> Row {
    let sequences = (scale.env_nr_sequences / 2).max(1000);
    let db = mublastp::dbgen::DbSpec::env_nr_scaled(sequences, 7171).generate();

    let (baseline, _, _) = run_blast(&db, None);
    let wall_plain = measure::avg_of(|| run_blast(&db, None).2);
    let dir = ckpt_dir("write");
    let wall_ckpt = measure::avg_of(|| run_blast(&db, Some((&dir, false))).2);
    let (_, cold_report, _) = run_blast(&db, Some((&dir, false)));
    let ckpt_bytes = dir_bytes(&dir);

    let (resumed_parts, resumed, _) = run_blast(&db, Some((&dir, true)));
    let records_saved = resumed
        .jobs
        .iter()
        .take(resumed.stages_resumed)
        .map(|j| j.records_in)
        .sum();
    let _ = std::fs::remove_dir_all(&dir);

    Row {
        workflow: "muBLASTP sort+distribute (fig. 8, --no-fuse)",
        stages: cold_report.jobs.len(),
        wall: (wall_plain, wall_ckpt),
        ckpt_bytes,
        stages_resumed: resumed.stages_resumed,
        records_saved,
        identical: resumed_parts == baseline,
    }
}

/// The experiment's rows.
pub fn rows(scale: &Scale) -> Vec<Row> {
    vec![blast_row(scale)]
}

/// Serialize the rows as the `BENCH_checkpoint.json` document.
pub fn to_json(rows: &[Row]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"checkpoint-ablation\",\n");
    s.push_str(&format!("  \"nodes\": {NODES},\n"));
    s.push_str(&format!("  \"partitions\": {PARTITIONS},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workflow\": \"{}\", \"stages\": {}, \
             \"wall_plain_us\": {}, \"wall_checkpoint_us\": {}, \
             \"overhead_pct\": {:.1}, \"checkpoint_bytes\": {}, \
             \"bytes_per_stage\": {}, \"resume_stages_skipped\": {}, \
             \"resume_records_saved\": {}, \"identical\": {}}}{}\n",
            r.workflow,
            r.stages,
            r.wall.0.as_micros(),
            r.wall.1.as_micros(),
            r.overhead_pct(),
            r.ckpt_bytes,
            r.bytes_per_stage(),
            r.stages_resumed,
            r.records_saved,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Render the checkpoint table and write [`JSON_PATH`]. Fails the bench
/// if resuming ever changes the output bytes or re-executes a committed
/// stage.
pub fn run(scale: &Scale) -> Table {
    let rs = rows(scale);
    let mut t = Table::new(
        "Checkpoint ablation: write-path cost vs resume savings",
        &[
            "workflow",
            "stages",
            "wall overhead",
            "ckpt bytes/stage",
            "resume skipped",
            "output",
        ],
    );
    for r in &rs {
        assert!(
            r.identical,
            "{}: resuming changed the output bytes",
            r.workflow
        );
        assert_eq!(
            r.stages_resumed, r.stages,
            "{}: a complete checkpoint must restore every stage",
            r.workflow
        );
        assert!(r.ckpt_bytes > 0, "{}: nothing was published", r.workflow);
        t.row(vec![
            r.workflow.to_string(),
            r.stages.to_string(),
            format!(
                "{:+.1}% ({:?} vs {:?})",
                r.overhead_pct(),
                r.wall.1,
                r.wall.0
            ),
            format!("{} ({} total)", r.bytes_per_stage(), r.ckpt_bytes),
            format!(
                "{} stage(s), {} records not recomputed",
                r.stages_resumed, r.records_saved
            ),
            if r.identical { "identical" } else { "DIVERGED" }.to_string(),
        ]);
    }
    t.note(
        "wall times average five scatter+run invocations at one thread; \
         bytes are fragments plus the manifest as published on disk",
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

    #[test]
    fn resume_restores_every_stage_and_keeps_bytes_identical() {
        let r = blast_row(&Scale::quick());
        assert!(r.identical, "resume diverged");
        assert_eq!(r.stages, 2, "unfused fig. 8 is sort then distribute");
        assert_eq!(r.stages_resumed, 2);
        assert!(r.ckpt_bytes > 0);
        assert!(r.records_saved > 0);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let json = to_json(&rows(&Scale::quick()));
        assert!(json.contains("\"checkpoint-ablation\""));
        assert_eq!(json.matches("\"workflow\":").count(), 1);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"overhead_pct\""));
        assert!(json.contains("\"resume_records_saved\""));
    }
}
