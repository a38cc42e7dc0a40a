//! The packed data format produced by the `pack` format operator.
//!
//! Paper Section III-B: format operators (`orig`, `pack`, `unpack`) change
//! the data *format* without reordering records or adding/deleting
//! attributes. `pack` turns a run of records sharing a key into one
//! [`PackedRecord`]; `unpack` flattens it back. The PowerLyra hybrid-cut
//! workflow packs edges by in-vertex after the group job (paper Figure 11,
//! step 3) so that the split job can route a whole vertex group at once.

use crate::record::Record;
use crate::value::Value;
use crate::{CodecError, Result};

/// A key together with every record of its group.
///
/// Invariant: each member record still contains the key field (packing does
/// not delete attributes — only the `compress` module factors the key out,
/// and it restores it on decompression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRecord {
    /// The shared group key.
    pub key: Value,
    /// The records of the group, in their grouped order.
    pub records: Vec<Record>,
}

impl PackedRecord {
    /// Create a packed record, checking that every member really carries
    /// `key` in field `key_idx`.
    pub fn new(key: Value, records: Vec<Record>, key_idx: usize) -> Result<Self> {
        for r in &records {
            match r.value(key_idx) {
                Some(v) if *v == key => {}
                Some(v) => {
                    return Err(CodecError(format!(
                        "record key {v} does not match group key {key}"
                    )))
                }
                None => {
                    return Err(CodecError(format!(
                        "record arity {} has no key field {key_idx}",
                        r.arity()
                    )))
                }
            }
        }
        Ok(PackedRecord { key, records })
    }

    /// Number of records in the group.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the group is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Pack a run of records by the key at `key_idx`.
///
/// Records with equal keys must be adjacent (which is what the group
/// operator's reduce stage guarantees); non-adjacent equal keys produce
/// separate packs, mirroring how a streaming packer behaves.
pub fn pack(records: Vec<Record>, key_idx: usize) -> Result<Vec<PackedRecord>> {
    let mut out: Vec<PackedRecord> = Vec::new();
    pack_onto(&mut out, records, key_idx)?;
    Ok(out)
}

/// Pack `records` onto the end of `out`: the result equals [`pack`] over
/// `out`'s members followed by `records`, so a run may extend `out`'s
/// last group. A run that forms one new group on its own — what a
/// reducer hands over per key-run — becomes that group's member vector
/// as it is, without a copy.
pub fn pack_onto(out: &mut Vec<PackedRecord>, records: Vec<Record>, key_idx: usize) -> Result<()> {
    if let Some(first) = records.first() {
        let key = first.require(key_idx)?;
        let one_group = records.iter().all(|r| r.value(key_idx) == Some(key));
        if one_group && out.last().is_none_or(|last| last.key != *key) {
            out.push(PackedRecord {
                key: key.clone(),
                records,
            });
            return Ok(());
        }
    }
    for r in records {
        let key = r.require(key_idx)?.clone();
        match out.last_mut() {
            Some(last) if last.key == key => last.records.push(r),
            _ => out.push(PackedRecord {
                key,
                records: vec![r],
            }),
        }
    }
    Ok(())
}

/// Flatten packed records back to the original flat format (`unpack`).
pub fn unpack(packed: Vec<PackedRecord>) -> Vec<Record> {
    let total: usize = packed.iter().map(|p| p.records.len()).sum();
    let mut out = Vec::with_capacity(total);
    for p in packed {
        out.extend(p.records);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    /// The worked example of paper Figure 11: edges grouped by in-vertex,
    /// with the indegree attribute appended, for in-vertex 1.
    fn figure11_group() -> Vec<Record> {
        vec![
            rec!["2", "1", 4i64],
            rec!["3", "1", 4i64],
            rec!["4", "1", 4i64],
            rec!["5", "1", 4i64],
        ]
    }

    #[test]
    fn pack_groups_adjacent_keys() {
        let mut rows = figure11_group();
        rows.push(rec!["1", "2", 1i64]);
        let packed = pack(rows, 1).unwrap();
        assert_eq!(packed.len(), 2);
        assert_eq!(packed[0].key, Value::Str("1".into()));
        assert_eq!(packed[0].len(), 4);
        assert_eq!(packed[1].key, Value::Str("2".into()));
        assert_eq!(packed[1].len(), 1);
    }

    #[test]
    fn pack_then_unpack_is_identity() {
        let rows = figure11_group();
        let packed = pack(rows.clone(), 1).unwrap();
        assert_eq!(unpack(packed), rows);
    }

    #[test]
    fn pack_keeps_nonadjacent_keys_separate() {
        let rows = vec![rec![1, 10], rec![2, 20], rec![1, 30]];
        let packed = pack(rows, 0).unwrap();
        assert_eq!(packed.len(), 3);
    }

    #[test]
    fn new_validates_member_keys() {
        let ok = PackedRecord::new(
            Value::Str("1".into()),
            vec![rec!["2", "1"], rec!["3", "1"]],
            1,
        );
        assert!(ok.is_ok());
        let bad = PackedRecord::new(
            Value::Str("1".into()),
            vec![rec!["2", "1"], rec!["3", "9"]],
            1,
        );
        assert!(bad.is_err());
        let out_of_range = PackedRecord::new(Value::Int(0), vec![rec![1]], 5);
        assert!(out_of_range.is_err());
    }

    #[test]
    fn pack_onto_equals_pack_over_the_concatenation() {
        let runs = [
            vec![rec![1, 10], rec![1, 11]],
            vec![rec![1, 12]], // extends the last group
            vec![rec![2, 20], rec![3, 30]],
            vec![],
            vec![rec![3, 31], rec![2, 21]],
        ];
        let mut out = Vec::new();
        for run in runs.clone() {
            pack_onto(&mut out, run, 0).unwrap();
        }
        assert_eq!(out, pack(runs.concat(), 0).unwrap());
        assert_eq!(out.len(), 4);
        assert!(pack_onto(&mut out, vec![rec![1]], 3).is_err());
    }

    #[test]
    fn empty_input_packs_to_nothing() {
        assert!(pack(Vec::new(), 0).unwrap().is_empty());
        assert!(unpack(Vec::new()).is_empty());
    }
}
