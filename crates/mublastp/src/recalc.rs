//! Index recalculation: rebuild start pointers after partitioning.
//!
//! After sequences are distributed, each partition becomes an independent
//! database file, so the `seq_start`/`desc_start` offsets must be
//! recomputed as prefix sums of the sizes within the partition (paper
//! Section III-C: "muBLASTP needs to recalculate the start pointers of
//! sequence data and description data. This process has been implemented
//! as a user-defined add-on operator", citing [36]).
//!
//! Provided as a plain function ([`recalculate`]), a payload extractor
//! ([`extract_partition`]) that materializes a partition's own
//! [`BlastDb`], and as [`RecalcOperator`] — a
//! [`papar_core::operator::CustomOperator`] demonstrating the paper's
//! Figure 7 extension point.

use papar_core::operator::{CustomJobCtx, CustomOperator};
use papar_mr::stats::JobStats;
use papar_mr::{Cluster, MapInput, MrError, TaskCtx};
use papar_record::batch::Batch;

use crate::dbformat::{BlastDb, IndexEntry};
use crate::{DbError, Result};

/// Rebuild the start pointers of a partition's entries as prefix sums.
pub fn recalculate(entries: &[IndexEntry]) -> Vec<IndexEntry> {
    let mut out = Vec::with_capacity(entries.len());
    let mut seq_off = 0i32;
    let mut desc_off = 0i32;
    for e in entries {
        out.push(IndexEntry {
            seq_start: seq_off,
            seq_size: e.seq_size,
            desc_start: desc_off,
            desc_size: e.desc_size,
        });
        seq_off += e.seq_size;
        desc_off += e.desc_size;
    }
    out
}

/// Materialize one partition as a standalone database: copy each entry's
/// payload out of the source database and rebuild the pointers.
pub fn extract_partition(source: &BlastDb, entries: &[IndexEntry]) -> Result<BlastDb> {
    let mut sequences = Vec::new();
    let mut descriptions = Vec::new();
    let mut index = Vec::with_capacity(entries.len());
    for e in entries {
        let seq_end = e.seq_start as usize + e.seq_size as usize;
        let desc_end = e.desc_start as usize + e.desc_size as usize;
        if e.seq_start < 0 || seq_end > source.sequences.len() {
            return Err(DbError(format!(
                "entry sequence range {}..{seq_end} outside source payload",
                e.seq_start
            )));
        }
        if e.desc_start < 0 || desc_end > source.descriptions.len() {
            return Err(DbError(format!(
                "entry description range {}..{desc_end} outside source payload",
                e.desc_start
            )));
        }
        let seq_start = sequences.len() as i32;
        sequences.extend_from_slice(&source.sequences[e.seq_start as usize..seq_end]);
        let desc_start = descriptions.len() as i32;
        descriptions.extend_from_slice(&source.descriptions[e.desc_start as usize..desc_end]);
        index.push(IndexEntry {
            seq_start,
            seq_size: e.seq_size,
            desc_start,
            desc_size: e.desc_size,
        });
    }
    Ok(BlastDb {
        index,
        sequences,
        descriptions,
    })
}

/// The user-defined add-on operator of paper Section III-C, registered in
/// PaPar workflows as `RecalcIndex`.
///
/// A map-only job on the engine ([`Cluster::run_local`]): every node
/// rewrites the pointers of each local fragment (each fragment is one
/// partition produced by the distribute job), producing the output
/// dataset with the same fragment ordinals.
pub struct RecalcOperator;

impl CustomOperator for RecalcOperator {
    fn run(&self, cluster: &mut Cluster, ctx: &CustomJobCtx) -> papar_core::Result<JobStats> {
        let outputs = [(ctx.output.clone(), ctx.input_schema.clone())];
        let recalc = |_: &TaskCtx, inputs: &[MapInput]| {
            (inputs.iter())
                .map(|mi| {
                    let records = mi.data.batch.clone().flatten();
                    let entries = (records.iter())
                        .map(IndexEntry::from_record)
                        .collect::<Result<Vec<_>>>()
                        .map_err(|e| MrError::msg(e.to_string()))?;
                    let rebuilt = (recalculate(&entries).into_iter())
                        .map(IndexEntry::to_record)
                        .collect();
                    Ok((mi.ordinal, vec![Batch::Flat(rebuilt)]))
                })
                .collect()
        };
        Ok(cluster.run_local(&ctx.id, &ctx.inputs, &outputs, recalc)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::DbSpec;

    #[test]
    fn recalculate_builds_prefix_sums() {
        let entries = vec![
            IndexEntry {
                seq_start: 500,
                seq_size: 10,
                desc_start: 900,
                desc_size: 5,
            },
            IndexEntry {
                seq_start: 100,
                seq_size: 20,
                desc_start: 700,
                desc_size: 7,
            },
        ];
        let out = recalculate(&entries);
        assert_eq!(out[0].seq_start, 0);
        assert_eq!(out[0].desc_start, 0);
        assert_eq!(out[1].seq_start, 10);
        assert_eq!(out[1].desc_start, 5);
        assert_eq!(out[1].seq_size, 20);
        assert!(recalculate(&[]).is_empty());
    }

    #[test]
    fn extract_partition_produces_valid_standalone_db() {
        let db = DbSpec::env_nr_scaled(100, 13).generate();
        // Take every third entry as a fake partition.
        let part: Vec<IndexEntry> = db.index.iter().copied().step_by(3).collect();
        let sub = extract_partition(&db, &part).unwrap();
        sub.validate().unwrap();
        assert_eq!(sub.len(), part.len());
        // Payload content must match the source sequences.
        for (i, e) in part.iter().enumerate() {
            let original = &db.sequences[e.seq_start as usize..(e.seq_start + e.seq_size) as usize];
            assert_eq!(sub.sequence(i), original);
        }
    }

    #[test]
    fn extract_partition_rejects_out_of_range() {
        let db = DbSpec::env_nr_scaled(10, 1).generate();
        let bogus = IndexEntry {
            seq_start: i32::MAX - 10,
            seq_size: 100,
            desc_start: 0,
            desc_size: 0,
        };
        assert!(extract_partition(&db, &[bogus]).is_err());
    }
}
