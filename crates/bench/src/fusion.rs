//! Fusion ablation: the physical planner's job-fusion rewrites measured
//! against `--no-fuse` on the paper's two workflows.
//!
//! Fig. 8 (muBLASTP) composes Sort→Distribute, which fuses into a single
//! MR job with one shuffle; Fig. 10 (PowerLyra hybrid-cut) composes
//! Group→Split→Distribute, where the split predicates fuse into the group
//! job's reduce side. Fusion is a pure performance transformation — the
//! rows assert the partitions stay byte-identical — so the interesting
//! numbers are the stage count and the shuffled bytes. Fig. 8's fused
//! stage is one shuffle by global rank when its partitions times its key
//! span fit its rows, and otherwise the two jobs `--no-fuse` runs, which
//! shuffle what they shuffle unfused. Besides the console table the
//! experiment writes `BENCH_fusion.json`.

use papar_core::exec::{ExecOptions, WorkflowReport};

use crate::datasets::{graphs, scaled_threshold, Scale};
use crate::report::Table;
use crate::workflows::{run_blast, run_hybrid};

/// Nodes in the simulated cluster.
pub const NODES: usize = 4;

/// Partitions produced by each run.
pub const PARTITIONS: usize = 8;

/// Where the machine-readable results land, relative to the working
/// directory.
pub const JSON_PATH: &str = "BENCH_fusion.json";

/// One workflow's fused-vs-unfused measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workflow label.
    pub workflow: &'static str,
    /// Physical stages run with fusion on / off (the report's entries).
    pub jobs: (usize, usize),
    /// Bytes shuffled with fusion on / off.
    pub shuffled: (u64, u64),
    /// Whether the partitions matched byte-for-byte.
    pub identical: bool,
}

impl Row {
    /// Fraction of the unfused shuffle traffic that fusion removed.
    pub fn shuffle_saving(&self) -> f64 {
        if self.shuffled.1 == 0 {
            0.0
        } else {
            1.0 - self.shuffled.0 as f64 / self.shuffled.1 as f64
        }
    }
}

fn shuffled_bytes(report: &WorkflowReport) -> u64 {
    report.jobs.iter().map(|j| j.exchange.remote_bytes).sum()
}

fn options(fuse: bool) -> ExecOptions {
    ExecOptions {
        fuse,
        threads: Some(1),
        ..ExecOptions::default()
    }
}

/// Fig. 8 fused vs. unfused.
pub fn blast_row(scale: &Scale) -> Row {
    let sequences = (scale.env_nr_sequences / 2).max(1000);
    let db = mublastp::dbgen::DbSpec::env_nr_scaled(sequences, 7171).generate();
    let fused = run_blast(&db, "roundRobin", PARTITIONS, NODES, options(true));
    let unfused = run_blast(&db, "roundRobin", PARTITIONS, NODES, options(false));
    Row {
        workflow: "muBLASTP sort+distribute (fig. 8)",
        jobs: (fused.report.jobs.len(), unfused.report.jobs.len()),
        shuffled: (
            shuffled_bytes(&fused.report),
            shuffled_bytes(&unfused.report),
        ),
        identical: fused.partitions == unfused.partitions,
    }
}

/// Fig. 10 fused vs. unfused, on the scale's first graph.
pub fn hybrid_row(scale: &Scale) -> Row {
    let (_, graph) = graphs(scale).into_iter().next().expect("a graph");
    let threshold = scaled_threshold(scale);
    let fused = run_hybrid(&graph, PARTITIONS, threshold, NODES, options(true));
    let unfused = run_hybrid(&graph, PARTITIONS, threshold, NODES, options(false));
    Row {
        workflow: "hybrid-cut group+split (fig. 10)",
        jobs: (fused.report.jobs.len(), unfused.report.jobs.len()),
        shuffled: (
            shuffled_bytes(&fused.report),
            shuffled_bytes(&unfused.report),
        ),
        identical: fused.partitions == unfused.partitions,
    }
}

/// Both workflows' rows.
pub fn rows(scale: &Scale) -> Vec<Row> {
    vec![blast_row(scale), hybrid_row(scale)]
}

/// Serialize the rows as the `BENCH_fusion.json` document.
pub fn to_json(rows: &[Row]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"job-fusion-ablation\",\n");
    s.push_str(&format!("  \"nodes\": {NODES},\n"));
    s.push_str(&format!("  \"partitions\": {PARTITIONS},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workflow\": \"{}\", \"jobs_fused\": {}, \"jobs_unfused\": {}, \
             \"shuffled_bytes_fused\": {}, \"shuffled_bytes_unfused\": {}, \
             \"shuffle_saving\": {:.3}, \"identical\": {}}}{}\n",
            r.workflow,
            r.jobs.0,
            r.jobs.1,
            r.shuffled.0,
            r.shuffled.1,
            r.shuffle_saving(),
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Render the ablation table and write [`JSON_PATH`]. Fails the bench if
/// fusion ever changes the output bytes or stops dropping jobs.
pub fn run(scale: &Scale) -> Table {
    let rs = rows(scale);
    let mut t = Table::new(
        "Job fusion ablation: fused vs --no-fuse",
        &["workflow", "MR jobs", "shuffled bytes", "output"],
    );
    for r in &rs {
        assert!(
            r.identical,
            "{}: fusion changed the output bytes",
            r.workflow
        );
        assert!(
            r.jobs.0 < r.jobs.1,
            "{}: fusion must drop the job count ({} vs {})",
            r.workflow,
            r.jobs.0,
            r.jobs.1
        );
        assert!(
            r.shuffled.0 <= r.shuffled.1,
            "{}: fusion must not add shuffle traffic ({} vs {})",
            r.workflow,
            r.shuffled.0,
            r.shuffled.1
        );
        t.row(vec![
            r.workflow.to_string(),
            format!("{} vs {}", r.jobs.0, r.jobs.1),
            format!(
                "{} vs {} (-{:.0}%)",
                r.shuffled.0,
                r.shuffled.1,
                r.shuffle_saving() * 100.0
            ),
            if r.identical { "identical" } else { "DIVERGED" }.to_string(),
        ]);
    }
    t.note(
        "each cell is fused vs --no-fuse; `papar plan --explain` shows the \
         rewrites behind the dropped jobs",
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
    fn fusion_drops_jobs_and_keeps_bytes_identical() {
        for r in rows(&Scale::quick()) {
            assert!(r.identical, "{} diverged", r.workflow);
            assert!(r.jobs.0 < r.jobs.1, "{}: {:?}", r.workflow, r.jobs);
            assert!(
                r.shuffled.0 <= r.shuffled.1,
                "{}: {:?}",
                r.workflow,
                r.shuffled
            );
        }
    }

    /// At the default scale (30,000 sequences, 8 partitions of a
    /// ≈3,000-key span) the fused stage is one shuffle by global rank and
    /// moves fewer bytes than the two it replaces; at the quick scale's
    /// 5,000 it falls back to those two and moves exactly their bytes.
    #[test]
    fn blast_fusion_halves_jobs_and_cuts_shuffle_traffic() {
        let ranked = blast_row(&Scale::default());
        assert_eq!(ranked.jobs, (1, 2), "sort+distribute must fuse");
        assert!(
            ranked.shuffled.0 < ranked.shuffled.1,
            "one shuffle instead of two must move fewer bytes: {:?}",
            ranked.shuffled
        );
        let fallback = blast_row(&Scale::quick());
        assert_eq!(fallback.jobs, (1, 2), "sort+distribute must fuse");
        assert_eq!(
            fallback.shuffled.0, fallback.shuffled.1,
            "the sort, then the distribute, moves what --no-fuse moves"
        );
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let json = to_json(&rows(&Scale::quick()));
        assert!(json.contains("\"job-fusion-ablation\""));
        assert_eq!(json.matches("\"workflow\":").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"shuffle_saving\""));
    }
}
