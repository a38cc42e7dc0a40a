//! Ablation experiments for the design choices Section III-D calls out:
//! CSR/CSC shuffle compression ("up to 13% improvement"), distributed data
//! sampling, and the ASPaS-style sort inside the sort operator.

use papar_core::exec::{ExecOptions, SamplingMode};
use papar_sort::parallel;
use std::time::Instant;

use crate::datasets::{databases, graphs, scaled_threshold, Scale};
use crate::report::{fmt_ratio, Table};
use crate::workflows::run_hybrid;

/// A1 — shuffle compression on the hybrid-cut: bytes with and without
/// CSC-compressing packed entries.
pub fn compression(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation A1: CSC shuffle compression (hybrid-cut)",
        &["graph", "bytes plain", "bytes compressed", "saving"],
    );
    let threshold = scaled_threshold(scale);
    for (name, graph) in graphs(scale) {
        let bytes = |compress: bool| {
            run_hybrid(
                &graph,
                16,
                threshold,
                // Deliberately co-prime with the partition count so group
                // placement and distribute routing do not coincide and the
                // shuffle actually crosses nodes.
                7,
                ExecOptions {
                    compression: compress,
                    ..ExecOptions::default()
                },
            )
            .report
            .total_shuffled_bytes()
        };
        let plain = bytes(false);
        let compressed = bytes(true);
        t.row(vec![
            name.to_string(),
            plain.to_string(),
            compressed.to_string(),
            format!(
                "{:.1}%",
                100.0 * (plain as f64 - compressed as f64) / plain as f64
            ),
        ]);
    }
    t.note("paper observed up to 13% communication improvement; the saving depends on the input");
    t
}

/// A2 — distributed sampling vs naive first-fragment sampling: reducer
/// balance of the sort job on the (length-clustered) databases.
pub fn sampling(scale: &Scale) -> Table {
    use crate::workflows::{blast_plan, run_raw};
    use papar_mr::Cluster;

    let mut t = Table::new(
        "Ablation A2: reduce-range sampling (sort job reducer balance)",
        &["database", "sampling", "max/avg reducer load"],
    );
    let (planner, args) = blast_plan("roundRobin", 16);
    for (name, db) in databases(scale) {
        for (label, mode) in [
            ("distributed", SamplingMode::Distributed),
            ("first-fragment", SamplingMode::FirstFragmentOnly),
        ] {
            // The sort job's skew histogram holds each reducer's load;
            // unfused, the sort is a traced job of its own.
            let options = ExecOptions {
                sampling: mode,
                fuse: false,
                trace: true,
                ..ExecOptions::default()
            };
            let raw = run_raw(
                &planner,
                &args,
                db.index_records(),
                Cluster::new(16),
                options,
                None,
            );
            let trace = raw.report.trace.expect("traced run");
            let sort = trace.jobs.iter().find(|j| j.name == "sort").unwrap();
            let loads = &sort.skew.as_ref().expect("a sort job's skew").records;
            let avg = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
            let max = *loads.iter().max().unwrap() as f64;
            t.row(vec![
                name.to_string(),
                label.to_string(),
                fmt_ratio(max / avg),
            ]);
        }
    }
    t.note("distributed sampling keeps every reducer near 1.0x the mean; naive sampling overloads some reducer");
    t
}

/// A3 — the sort operator's kernels (ASPaS analog) vs the baseline's
/// qsort-style sort and the standard library, on the real workload: index
/// entries keyed by sequence length.
pub fn sort_comparison(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation A3: single-node sort of the muBLASTP index (seq_size key)",
        &[
            "database",
            "entries",
            "papar-sort samplesort",
            "papar-sort mergesort",
            "std stable sort",
        ],
    );
    for (name, db) in databases(scale) {
        let keys: Vec<(i32, u32)> = db
            .index
            .iter()
            .enumerate()
            .map(|(i, e)| (e.seq_size, i as u32))
            .collect();
        type SortFn<'a> = &'a dyn Fn(&mut Vec<(i32, u32)>);
        let time = |f: SortFn<'_>| {
            crate::measure::avg_of(|| {
                let mut v = keys.clone();
                let t0 = Instant::now();
                f(&mut v);
                let d = t0.elapsed();
                std::hint::black_box(&v);
                d
            })
        };
        let sample = time(&|v| parallel::par_sort_unstable_by(v, 1, |a, b| a < b));
        let merge = time(&|v| parallel::mergesort_by(v, |a, b| a.cmp(b)));
        let std_t = time(&|v| v.sort());
        t.row(vec![
            name.to_string(),
            keys.len().to_string(),
            crate::report::fmt_dur(sample),
            crate::report::fmt_dur(merge),
            crate::report::fmt_dur(std_t),
        ]);
    }
    t.note("the paper credits ASPaS for PaPar's single-node edge over muBLASTP's qsort-based partitioner");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_saves_bytes_on_every_graph() {
        let t = compression(&Scale::quick());
        for row in &t.rows {
            let plain: u64 = row[1].parse().unwrap();
            let compressed: u64 = row[2].parse().unwrap();
            assert!(compressed < plain, "{}: {compressed} !< {plain}", row[0]);
        }
    }

    #[test]
    fn distributed_sampling_balances_better() {
        let t = sampling(&Scale::quick());
        // Rows come in (distributed, first-fragment) pairs per database.
        for pair in t.rows.chunks(2) {
            let good: f64 = pair[0][2].parse().unwrap();
            let naive: f64 = pair[1][2].parse().unwrap();
            assert!(
                good <= naive,
                "{}: distributed {good} should balance at least as well as naive {naive}",
                pair[0][0]
            );
            // Quick-scale samples are small; allow some jitter but stay
            // far from the naive mode's collapse.
            assert!(
                good < 2.0,
                "{}: distributed sampling too skewed: {good}",
                pair[0][0]
            );
        }
    }
}
