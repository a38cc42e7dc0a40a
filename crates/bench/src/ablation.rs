//! Ablation experiments for the design choices Section III-D calls out:
//! CSR/CSC shuffle compression ("up to 13% improvement"), distributed data
//! sampling, and the ASPaS-style packed-key sort inside the sort operator.

use mublastp::baseline::{self, BaselinePolicy};
use mublastp::dbformat::IndexEntry;
use papar_core::exec::{ExecOptions, SamplingMode};
use papar_sort::packed;
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

/// Entry positions in `(seq_size, index)` order, by the shipped kernel:
/// each key packed into a `u128` whose unsigned order is key order (the
/// sign-flipped length above the entry's position), as the engine packs
/// its shuffle keys.
fn packed_order(index: &[IndexEntry]) -> Vec<u32> {
    let mut keys: Vec<u128> = index
        .iter()
        .enumerate()
        .map(|(i, e)| (u128::from(e.seq_size as u32 ^ 0x8000_0000) << 32) | i as u128)
        .collect();
    packed::sort_packed(&mut keys);
    keys.iter().map(|&k| k as u32).collect()
}

/// Entry positions in `(seq_size, index)` order, by `slice::sort`.
fn std_order(index: &[IndexEntry]) -> Vec<u32> {
    let mut keys: Vec<(i32, u32)> = index
        .iter()
        .enumerate()
        .map(|(i, e)| (e.seq_size, i as u32))
        .collect();
    keys.sort();
    keys.iter().map(|&(_, i)| i).collect()
}

/// A3 — the sort operator's kernel (ASPaS analog) vs the muBLASTP
/// baseline's qsort-style comparator sort and the standard library, on
/// the real workload: index entries keyed by `(seq_size, index)`. Every
/// column starts from the index slice, so each pays one copy of it.
pub fn sort_comparison(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation A3: single-node sort of the muBLASTP index ((seq_size, index) key)",
        &[
            "database",
            "entries",
            "packed u128 sort",
            "baseline comparator sort",
            "std stable sort",
        ],
    );
    for (name, db) in databases(scale) {
        let index = &db.index;
        let time = |f: &dyn Fn() -> Vec<u32>| {
            crate::measure::avg_of(|| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed()
            })
        };
        let packed = time(&|| packed_order(index));
        let baseline = crate::measure::avg_of(|| {
            baseline::partition(index, 1, BaselinePolicy::Cyclic).sort_time
        });
        let std_t = time(&|| std_order(index));
        t.row(vec![
            name.to_string(),
            index.len().to_string(),
            crate::report::fmt_dur(packed),
            crate::report::fmt_dur(baseline),
            crate::report::fmt_dur(std_t),
        ]);
    }
    t.note("the paper credits ASPaS for PaPar's single-node edge over muBLASTP's qsort-based partitioner; all three sorts yield the same order");
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

    #[test]
    fn the_three_sorts_agree_on_the_order() {
        let db = mublastp::dbgen::DbSpec::env_nr_scaled(3_000, 1001).generate();
        let order = packed_order(&db.index);
        assert_eq!(order, std_order(&db.index));
        let run = baseline::partition(&db.index, 1, BaselinePolicy::Cyclic);
        let sorted: Vec<IndexEntry> = order.iter().map(|&i| db.index[i as usize]).collect();
        assert_eq!(run.partitions[0], sorted);
    }
}
