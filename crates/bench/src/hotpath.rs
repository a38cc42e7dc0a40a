//! Zero-copy hot-path ablation: the engine's borrowed-wire-view reduce
//! path (key-prefix packed sort, `papar_sort::packed`) measured against
//! `--no-zerocopy` on the paper's two workflows.
//!
//! Zero-copy is a pure performance transformation — every row asserts the
//! partitions stay byte-identical — so the interesting numbers are the
//! engine's hot-path counters: bytes staged for the reduce sort, heap
//! allocations made while staging, and the prefix ties that forced a key
//! re-decode. The counters are analytic (computed from the data and the
//! mode, not the host), so the reduction is exact and thread-invariant.
//! A fig13a-style single-thread wall-clock comparison rounds out the
//! table. Besides the console table the experiment writes
//! `BENCH_hotpath.json`.

use papar_core::exec::{ExecOptions, WorkflowReport};
use std::time::Duration;

use crate::datasets::{databases, graphs, scaled_threshold, Scale};
use crate::measure;
use crate::report::{fmt_dur, fmt_ratio, Table};
use crate::workflows::{run_blast, run_hybrid};

/// Nodes in the simulated cluster.
pub const NODES: usize = 4;

/// Partitions produced by each run.
pub const PARTITIONS: usize = 8;

/// Where the machine-readable results land, relative to the working
/// directory.
pub const JSON_PATH: &str = "BENCH_hotpath.json";

/// One workflow's zero-copy-vs-owned measurement. Tuple fields are
/// `(zero-copy, owned)`.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workflow label.
    pub workflow: &'static str,
    /// Bytes staged for the reduce sort with zero-copy on / off.
    pub staged_bytes: (u64, u64),
    /// Heap allocations made while staging with zero-copy on / off.
    pub staged_allocs: (u64, u64),
    /// Wire bytes decoded into owned records — identical in both modes
    /// (every pair is materialized exactly once).
    pub materialized_bytes: (u64, u64),
    /// Pairs in prefix-tie runs on the zero-copy path.
    pub tie_pairs: u64,
    /// Whether the partitions matched byte-for-byte.
    pub identical: bool,
}

impl Row {
    /// Fraction of the owned path's staged bytes that zero-copy removed.
    pub fn staged_reduction(&self) -> f64 {
        if self.staged_bytes.1 == 0 {
            0.0
        } else {
            1.0 - self.staged_bytes.0 as f64 / self.staged_bytes.1 as f64
        }
    }

    /// Fraction of the owned path's staging allocations removed.
    pub fn alloc_reduction(&self) -> f64 {
        if self.staged_allocs.1 == 0 {
            0.0
        } else {
            1.0 - self.staged_allocs.0 as f64 / self.staged_allocs.1 as f64
        }
    }
}

fn hot_sums(report: &WorkflowReport) -> (u64, u64, u64, u64) {
    let mut s = (0, 0, 0, 0);
    for j in &report.jobs {
        s.0 += j.hot.staged_bytes;
        s.1 += j.hot.staged_allocs;
        s.2 += j.hot.materialized_bytes;
        s.3 += j.hot.tie_pairs;
    }
    s
}

fn options(zerocopy: bool) -> ExecOptions {
    ExecOptions {
        zerocopy,
        threads: Some(1),
        ..ExecOptions::default()
    }
}

/// Fig. 8 with zero-copy on vs off: integer sort keys, always-exact
/// prefixes.
pub fn blast_row(scale: &Scale) -> Row {
    let sequences = (scale.env_nr_sequences / 2).max(1000);
    let db = mublastp::dbgen::DbSpec::env_nr_scaled(sequences, 7171).generate();
    let zc = run_blast(&db, "roundRobin", PARTITIONS, NODES, options(true));
    let owned = run_blast(&db, "roundRobin", PARTITIONS, NODES, options(false));
    let (zb, za, zm, zt) = hot_sums(&zc.report);
    let (ob, oa, om, _) = hot_sums(&owned.report);
    Row {
        workflow: "muBLASTP sort+distribute (fig. 8)",
        staged_bytes: (zb, ob),
        staged_allocs: (za, oa),
        materialized_bytes: (zm, om),
        tie_pairs: zt,
        identical: zc.partitions == owned.partitions,
    }
}

/// Fig. 10 with zero-copy on vs off, on the scale's first graph: grouped
/// packed entries, the allocation-heavy regime.
pub fn hybrid_row(scale: &Scale) -> Row {
    let (_, graph) = graphs(scale).into_iter().next().expect("a graph");
    let threshold = scaled_threshold(scale);
    let zc = run_hybrid(&graph, PARTITIONS, threshold, NODES, options(true));
    let owned = run_hybrid(&graph, PARTITIONS, threshold, NODES, options(false));
    let (zb, za, zm, zt) = hot_sums(&zc.report);
    let (ob, oa, om, _) = hot_sums(&owned.report);
    Row {
        workflow: "hybrid-cut group+split (fig. 10)",
        staged_bytes: (zb, ob),
        staged_allocs: (za, oa),
        materialized_bytes: (zm, om),
        tie_pairs: zt,
        identical: zc.partitions == owned.partitions,
    }
}

/// Both workflows' rows.
pub fn rows(scale: &Scale) -> Vec<Row> {
    vec![blast_row(scale), hybrid_row(scale)]
}

/// The fig13a workload's single-thread wall clock, zero-copy on vs off:
/// real host time (the paper's five-run average), not the simulator's
/// virtual clock — the virtual clock is deliberately identical across
/// the two modes.
#[derive(Debug, Clone, Copy)]
pub struct WallComparison {
    /// Wall time with the zero-copy path.
    pub zerocopy: Duration,
    /// Wall time with `--no-zerocopy`.
    pub owned: Duration,
}

impl WallComparison {
    /// How much faster the zero-copy path runs.
    pub fn speedup(&self) -> f64 {
        self.owned.as_secs_f64() / self.zerocopy.as_secs_f64().max(f64::EPSILON)
    }
}

/// Measure the wall comparison on the scale's env_nr database.
///
/// Follows the paper's protocol ("average time of five runs without I/O
/// time"): dataset generation, input scatter, and the payload
/// materialization copies stay outside the timed region — only the
/// engine's sample/map/shuffle/sort/reduce work is on the clock.
pub fn blast_wall(scale: &Scale) -> WallComparison {
    let (_, db) = databases(scale).into_iter().next().expect("a database");
    let records = db.index_records();
    let (planner, args) = crate::workflows::blast_plan("roundRobin", 32);
    let wall = |zerocopy: bool| {
        measure::avg_of(|| {
            let raw = crate::workflows::run_raw(
                &planner,
                &args,
                records.clone(),
                papar_mr::Cluster::new(1),
                options(zerocopy),
                None,
            );
            std::hint::black_box(&raw.report);
            raw.run_wall
        })
    };
    WallComparison {
        zerocopy: wall(true),
        owned: wall(false),
    }
}

/// Serialize the measurements as the `BENCH_hotpath.json` document.
pub fn to_json(rows: &[Row], wall: &WallComparison) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"zero-copy-hotpath-ablation\",\n");
    s.push_str(&format!("  \"nodes\": {NODES},\n"));
    s.push_str(&format!("  \"partitions\": {PARTITIONS},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workflow\": \"{}\", \"staged_bytes_zerocopy\": {}, \
             \"staged_bytes_owned\": {}, \"staged_reduction\": {:.3}, \
             \"staged_allocs_zerocopy\": {}, \"staged_allocs_owned\": {}, \
             \"alloc_reduction\": {:.3}, \"materialized_bytes\": {}, \
             \"tie_pairs\": {}, \"identical\": {}}}{}\n",
            r.workflow,
            r.staged_bytes.0,
            r.staged_bytes.1,
            r.staged_reduction(),
            r.staged_allocs.0,
            r.staged_allocs.1,
            r.alloc_reduction(),
            r.materialized_bytes.0,
            r.tie_pairs,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"wall\": {{\"workload\": \"fig13a env_nr, 1 thread\", \
         \"zerocopy_s\": {:.6}, \"owned_s\": {:.6}, \"speedup\": {:.3}}}\n",
        wall.zerocopy.as_secs_f64(),
        wall.owned.as_secs_f64(),
        wall.speedup()
    ));
    s.push_str("}\n");
    s
}

/// Render the ablation table and write [`JSON_PATH`]. Fails the bench if
/// zero-copy ever changes the output bytes, stops cutting the staged
/// footprint, or decodes a pair more than once.
pub fn run(scale: &Scale) -> Table {
    let rs = rows(scale);
    let wall = blast_wall(scale);
    let mut t = Table::new(
        "Zero-copy hot path: staged footprint vs --no-zerocopy",
        &[
            "workflow",
            "staged bytes",
            "staged allocs",
            "tie pairs",
            "output",
        ],
    );
    for r in &rs {
        assert!(
            r.identical,
            "{}: zero-copy changed the output bytes",
            r.workflow
        );
        assert!(
            r.staged_bytes.0 < r.staged_bytes.1,
            "{}: zero-copy must stage fewer bytes ({} vs {})",
            r.workflow,
            r.staged_bytes.0,
            r.staged_bytes.1
        );
        assert_eq!(
            r.materialized_bytes.0, r.materialized_bytes.1,
            "{}: both modes must decode every pair exactly once",
            r.workflow
        );
        t.row(vec![
            r.workflow.to_string(),
            format!(
                "{} vs {} (-{:.0}%)",
                r.staged_bytes.0,
                r.staged_bytes.1,
                r.staged_reduction() * 100.0
            ),
            format!(
                "{} vs {} (-{:.0}%)",
                r.staged_allocs.0,
                r.staged_allocs.1,
                r.alloc_reduction() * 100.0
            ),
            r.tie_pairs.to_string(),
            if r.identical { "identical" } else { "DIVERGED" }.to_string(),
        ]);
    }
    assert!(
        rs[0].staged_reduction() >= 0.4,
        "fig. 8 zero-copy must cut staged bytes by >=40%, got {:.1}%",
        rs[0].staged_reduction() * 100.0
    );
    t.note(format!(
        "fig13a env_nr wall, 1 thread: {} zero-copy vs {} owned ({}x)",
        fmt_dur(wall.zerocopy),
        fmt_dur(wall.owned),
        fmt_ratio(wall.speedup())
    ));
    t.note(
        "each cell is zero-copy vs --no-zerocopy; counters are analytic \
         (exact, thread-invariant), wall is host time averaged over 5 runs",
    );
    match std::fs::write(JSON_PATH, to_json(&rs, &wall)) {
        Ok(()) => t.note(format!("machine-readable results written to {JSON_PATH}")),
        Err(e) => t.note(format!("could not write {JSON_PATH}: {e}")),
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zerocopy_cuts_staging_and_keeps_bytes_identical() {
        let rs = rows(&Scale::quick());
        for r in &rs {
            assert!(r.identical, "{} diverged", r.workflow);
            assert!(
                r.staged_bytes.0 < r.staged_bytes.1,
                "{}: {:?}",
                r.workflow,
                r.staged_bytes
            );
            assert!(
                r.staged_allocs.0 < r.staged_allocs.1,
                "{}: {:?}",
                r.workflow,
                r.staged_allocs
            );
            assert_eq!(
                r.materialized_bytes.0, r.materialized_bytes.1,
                "{}: decode counts diverged",
                r.workflow
            );
        }
        assert!(
            rs[0].staged_reduction() >= 0.4,
            "fig. 8 staged-bytes cut below 40%: {:.3}",
            rs[0].staged_reduction()
        );
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let wall = WallComparison {
            zerocopy: Duration::from_millis(100),
            owned: Duration::from_millis(150),
        };
        let json = to_json(&rows(&Scale::quick()), &wall);
        assert!(json.contains("\"zero-copy-hotpath-ablation\""));
        assert_eq!(json.matches("\"workflow\":").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"staged_reduction\""));
        assert!(json.contains("\"speedup\": 1.500"));
    }
}
