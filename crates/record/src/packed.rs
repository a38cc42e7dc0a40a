//! The packed data format produced by the `pack` format operator.
//!
//! Paper Section III-B: format operators (`orig`, `pack`, `unpack`) change
//! the data *format* without reordering records or adding/deleting
//! attributes. `pack` turns a run of records sharing a key into one
//! [`PackedRecord`]; `unpack` flattens it back. The PowerLyra hybrid-cut
//! workflow packs edges by in-vertex after the group job (paper Figure 11,
//! step 3) so that the split job can route a whole vertex group at once.
//!
//! A group keeps its members as [`Rows`] of the batch schema — the
//! tag-less record bytes a packed shuffle entry carries — so packing
//! slices row bytes and unpacking concatenates them: neither decodes a
//! value, and a group ships as its bytes.

use std::sync::Arc;

use crate::batch::{RowRef, Rows};
use crate::value::Value;
use crate::wire::{encode_rows, field_spans};
use crate::{CodecError, Result, Schema};

/// A key together with every record of its group, as rows.
///
/// Invariant: each member still contains the key field (packing does not
/// delete attributes — only the `compress` module factors the key out of
/// the wire bytes, and it restores it on decompression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRecord {
    /// The shared group key.
    pub key: Value,
    /// The records of the group, in their grouped order.
    pub members: Rows,
}

impl PackedRecord {
    /// Create a packed record, checking that every member really carries
    /// `key` in field `key_idx`.
    pub fn new(key: Value, members: Rows, key_idx: usize) -> Result<Self> {
        for row in members.iter() {
            let v = row.field(key_idx)?;
            if v != key {
                return Err(CodecError(format!(
                    "record key {v} does not match group key {key}"
                )));
            }
        }
        Ok(PackedRecord { key, members })
    }

    /// Number of records in the group.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the group is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Pack rows by the key at `key_idx`.
///
/// Records with equal keys must be adjacent (which is what the group
/// operator's reduce stage guarantees); non-adjacent equal keys produce
/// separate packs, mirroring how a streaming packer behaves.
pub fn pack(rows: Rows, key_idx: usize) -> Result<Vec<PackedRecord>> {
    let mut out: Vec<PackedRecord> = Vec::new();
    pack_onto(&mut out, rows, key_idx)?;
    Ok(out)
}

/// Pack `rows` onto the end of `out`: the result equals [`pack`] over
/// `out`'s members followed by `rows`, so a run may extend `out`'s last
/// group. Runs are cut where the key field's bytes change (equal values
/// have equal bytes), and each run's key is decoded once. A run that
/// forms one new group on its own — what a reducer hands over per
/// key-run — becomes that group's members as it is, without a copy.
pub fn pack_onto(out: &mut Vec<PackedRecord>, rows: Rows, key_idx: usize) -> Result<()> {
    let key_span = |row| key_span(row, key_idx);
    let Some(first) = rows.iter().next() else {
        return Ok(());
    };
    let key = first.field(key_idx)?;
    let first_span = key_span(first);
    if rows.iter().all(|row| key_span(row) == first_span) && out.last().is_none_or(|g| g.key != key)
    {
        out.push(PackedRecord { key, members: rows });
        return Ok(());
    }
    // Several runs, or one that extends `out`'s last group: each run's
    // rows are copied where they land.
    let mut land = |key: Value, part: &[u8]| -> Result<()> {
        match out.last_mut() {
            Some(group) if group.key == key => {
                let joined = [group.members.as_bytes(), part].concat();
                group.members = Rows::new(group.members.schema().clone(), joined)?;
            }
            _ => out.push(PackedRecord {
                key,
                members: Rows::new(rows.schema().clone(), part.to_vec())?,
            }),
        }
        Ok(())
    };
    let bytes = rows.as_bytes();
    let (mut run, mut span, mut start, mut at) = (key, first_span, 0, 0);
    for row in rows.iter() {
        let next = key_span(row);
        if next != span {
            land(
                std::mem::replace(&mut run, row.field(key_idx)?),
                &bytes[start..at],
            )?;
            (span, start) = (next, at);
        }
        at += row.as_bytes().len();
    }
    land(run, &bytes[start..])
}

/// The bytes of field `key_idx` of `row`, if it has one.
fn key_span(row: RowRef<'_>, key_idx: usize) -> Option<&[u8]> {
    field_spans(row.as_bytes(), row.schema()).nth(key_idx)
}

/// Flatten packed records back to the original flat format (`unpack`):
/// the members' row bytes, concatenated, as rows of `schema`.
pub fn unpack(packed: Vec<PackedRecord>, schema: &Arc<Schema>) -> Result<Rows> {
    let mut bytes = Vec::with_capacity(packed.iter().map(|p| p.members.as_bytes().len()).sum());
    for p in &packed {
        encode_rows(&p.members, schema, &mut bytes)?;
    }
    Rows::new(schema.clone(), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;
    use crate::record::Record;
    use papar_config::input::FieldType;

    fn edges() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            ("vertex_a", FieldType::Str),
            ("vertex_b", FieldType::Str),
            ("indegree", FieldType::Long),
        ]))
    }

    fn ints() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Integer),
        ]))
    }

    fn rows(schema: &Arc<Schema>, records: &[Record]) -> Rows {
        Rows::from_records(schema.clone(), records).unwrap()
    }

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
        let mut records = figure11_group();
        records.push(rec!["1", "2", 1i64]);
        let packed = pack(rows(&edges(), &records), 1).unwrap();
        assert_eq!(packed.len(), 2);
        assert_eq!(packed[0].key, Value::Str("1".into()));
        assert_eq!(packed[0].len(), 4);
        assert_eq!(packed[0].members.to_records(), figure11_group());
        assert_eq!(packed[1].key, Value::Str("2".into()));
        assert_eq!(packed[1].len(), 1);
    }

    #[test]
    fn pack_then_unpack_is_identity() {
        let all = rows(&edges(), &figure11_group());
        let packed = pack(all.clone(), 1).unwrap();
        assert_eq!(unpack(packed, &edges()).unwrap(), all);
    }

    #[test]
    fn pack_keeps_nonadjacent_keys_separate() {
        let records = [rec![1, 10], rec![2, 20], rec![1, 30]];
        let packed = pack(rows(&ints(), &records), 0).unwrap();
        assert_eq!(packed.len(), 3);
    }

    #[test]
    fn new_validates_member_keys() {
        let schema = Arc::new(Schema::new(vec![
            ("a", FieldType::Str),
            ("b", FieldType::Str),
        ]));
        let one = Value::Str("1".into());
        let ok = PackedRecord::new(one.clone(), rows(&schema, &[rec!["2", "1"]]), 1);
        assert!(ok.is_ok());
        let bad = rows(&schema, &[rec!["2", "1"], rec!["3", "9"]]);
        assert!(PackedRecord::new(one, bad, 1).is_err());
        let out_of_range = PackedRecord::new(Value::Int(0), rows(&ints(), &[rec![1, 2]]), 5);
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
        for run in &runs {
            pack_onto(&mut out, rows(&ints(), run), 0).unwrap();
        }
        assert_eq!(out, pack(rows(&ints(), &runs.concat()), 0).unwrap());
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].members.to_records(), runs[..2].concat());
        assert!(pack_onto(&mut out, rows(&ints(), &[rec![1, 1]]), 3).is_err());
    }

    #[test]
    fn empty_input_packs_to_nothing() {
        let none = Rows::new(ints(), Vec::new()).unwrap();
        assert!(pack(none, 0).unwrap().is_empty());
        assert!(unpack(Vec::new(), &ints()).unwrap().is_empty());
    }
}
