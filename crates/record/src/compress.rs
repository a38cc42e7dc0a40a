//! CSR/CSC-style compression of packed data (paper Section III-D, "Data
//! Compression").
//!
//! After the group job of the hybrid-cut workflow, the packed format carries
//! redundant data: every member record still contains the group key (the
//! in-vertex) and usually the add-on attribute too. The paper's example —
//! reducer 0 holding `{{2,1,4},{3,1,4},{4,1,4},{5,1,4}}` for in-vertex 1 —
//! compresses to the CSC form `{0, {2,3,4,5}, {4,4,4,4}}`: one start
//! pointer, the out-vertex id array and the value array. The value array is
//! *not* further compressed "to keep the generality".
//!
//! This module implements exactly that transform at the wire level:
//! [`encode_compressed`] factors the key column out of every group and
//! stores the remaining columns as arrays; [`decode_compressed`] restores
//! the original packed batch bit-for-bit. The byte saving is what the
//! paper's "up to 13% improvement" in shuffle volume comes from, reproduced
//! by the `ablation-compress` experiment.

use std::sync::Arc;

use crate::batch::Rows;
use crate::packed::PackedRecord;
use crate::record::Record;
use crate::wire::{self, Reader};
use crate::{Batch, CodecError, Result, Schema, Value};

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encode a packed batch in the compressed CSC-style layout.
///
/// Layout: `u32 group-count`, then the start-pointer array (`u32` per group,
/// CSC row/column pointers over the concatenated member arrays), then per
/// group: the tagged key followed by the non-key columns stored
/// column-major.
pub fn encode_compressed(
    batch: &Batch,
    schema: &Schema,
    key_idx: usize,
    buf: &mut Vec<u8>,
) -> Result<()> {
    let groups = batch.as_packed()?;
    if key_idx >= schema.len() {
        return Err(CodecError(format!(
            "key index {key_idx} out of range for schema of arity {}",
            schema.len()
        )));
    }
    put_u32(buf, groups.len() as u32);
    // CSC start pointers: starts[i] is the offset of group i's first member
    // in the concatenated member arrays (the paper's example stores `0` for
    // the first in-vertex).
    let mut start = 0u32;
    for g in groups {
        put_u32(buf, start);
        start = start
            .checked_add(g.members.len() as u32)
            .ok_or_else(|| CodecError("group sizes overflow u32".into()))?;
    }
    put_u32(buf, start); // total member count terminates the pointer array
    for g in groups {
        // Consistency: every member must actually carry the group key.
        for row in g.members.iter() {
            let member = row.field(key_idx)?;
            if member != g.key {
                return Err(CodecError(format!(
                    "member key {member} differs from group key {}",
                    g.key
                )));
            }
        }
        wire::encode_value(&g.key, buf);
        encode_columns(&g.members, schema, key_idx, None, buf)?;
    }
    Ok(())
}

/// Append the CSC column block of one group: for each field of `schema`
/// but `key_idx`, every member's cell, column-major, where field `fi` of
/// `schema` is member field `proj[fi]` (field `fi` without a projection).
pub fn encode_columns(
    members: &Rows,
    schema: &Schema,
    key_idx: usize,
    proj: Option<&[usize]>,
    buf: &mut Vec<u8>,
) -> Result<()> {
    for (fi, field) in schema.fields().iter().enumerate() {
        let src = proj.map_or(fi, |proj| proj[fi]);
        for row in members.iter().filter(|_| fi != key_idx) {
            wire::encode_field(&row.field(src)?, field.ty, buf)?;
        }
    }
    Ok(())
}

/// Decode a compressed batch back to the packed format, restoring the key
/// field inside every member record.
pub fn decode_compressed(r: &mut Reader<'_>, schema: &Schema, key_idx: usize) -> Result<Batch> {
    if key_idx >= schema.len() {
        return Err(CodecError(format!(
            "key index {key_idx} out of range for schema of arity {}",
            schema.len()
        )));
    }
    let n_groups = r.read_u32()? as usize;
    // Each group takes a 4-byte start pointer and a key of at least 5
    // bytes, and one more pointer ends the array.
    wire::check_count(r, n_groups, 9, "compressed group")?;
    let mut starts = Vec::with_capacity(n_groups + 1);
    for _ in 0..=n_groups {
        starts.push(r.read_u32()? as usize);
    }
    for w in starts.windows(2) {
        if w[1] < w[0] {
            return Err(CodecError("start pointers are not monotone".into()));
        }
    }
    let shared = Arc::new(schema.clone());
    let mut groups = Vec::with_capacity(n_groups);
    for gi in 0..n_groups {
        let count = starts[gi + 1] - starts[gi];
        let key = wire::decode_value(r)?;
        let mut records = Vec::new();
        decode_csc_rows(r, schema, key_idx, &key, count, &mut records)?;
        let members = Rows::from_records(shared.clone(), &records)?;
        groups.push(PackedRecord { key, members });
    }
    Ok(Batch::Packed(groups))
}

/// Rebuild `count` member records from one group's column block (each
/// non-key field's `count` cells, column-major), restoring `key` at
/// `key_idx`, and append them to `out`. The records are filled field by
/// field, in place.
pub(crate) fn decode_csc_rows(
    r: &mut Reader<'_>,
    schema: &Schema,
    key_idx: usize,
    key: &Value,
    count: usize,
    out: &mut Vec<Record>,
) -> Result<()> {
    // Every non-key cell takes at least one byte: refuse a count the
    // remaining bytes cannot hold before allocating for it.
    if schema.len() > 1 && count > r.remaining() {
        return Err(CodecError(format!(
            "group of {count} records needs more than the {} bytes left",
            r.remaining()
        )));
    }
    let start = out.len();
    out.resize(start + count, Record::default());
    for (fi, field) in schema.fields().iter().enumerate() {
        for rec in &mut out[start..] {
            rec.push(if fi == key_idx {
                key.clone()
            } else {
                wire::decode_field(r, field.ty)?
            });
        }
    }
    Ok(())
}

/// Compare compressed vs uncompressed encoded sizes.
///
/// Returns `(compressed, uncompressed)` byte counts. The saving depends on
/// the input (it "highly depends on the input data" per the paper): big
/// groups with wide keys compress well, singleton groups can even expand.
pub fn compression_sizes(batch: &Batch, schema: &Schema, key_idx: usize) -> Result<(usize, usize)> {
    let mut c = Vec::new();
    encode_compressed(batch, schema, key_idx, &mut c)?;
    let plain = wire::encoded_size(batch, schema)?;
    Ok((c.len(), plain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;
    use papar_config::input::FieldType;

    fn grouped_edge_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            ("vertex_a", FieldType::Str),
            ("vertex_b", FieldType::Str),
            ("indegree", FieldType::Long),
        ]))
    }

    /// The paper's worked example: reducer 0 after step 3 of Figure 11.
    fn figure11_packed() -> Batch {
        Batch::Flat(vec![
            rec!["2", "1", 4i64],
            rec!["3", "1", 4i64],
            rec!["4", "1", 4i64],
            rec!["5", "1", 4i64],
        ])
        .pack_by(&grouped_edge_schema(), 1)
        .unwrap()
    }

    #[test]
    fn roundtrip_restores_packed_batch() {
        let schema = grouped_edge_schema();
        let batch = figure11_packed();
        let mut buf = Vec::new();
        encode_compressed(&batch, &schema, 1, &mut buf).unwrap();
        let mut rd = Reader::new(&buf);
        let got = decode_compressed(&mut rd, &schema, 1).unwrap();
        assert_eq!(got, batch);
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn paper_example_actually_shrinks() {
        let schema = grouped_edge_schema();
        let batch = figure11_packed();
        let (compressed, plain) = compression_sizes(&batch, &schema, 1).unwrap();
        // The key "1" (5 bytes encoded) is stored once instead of 4 times.
        assert!(
            compressed < plain,
            "expected shrink, got {compressed} >= {plain}"
        );
    }

    #[test]
    fn multiple_groups_roundtrip() {
        let schema = grouped_edge_schema();
        let batch = Batch::Flat(vec![
            rec!["2", "1", 2i64],
            rec!["3", "1", 2i64],
            rec!["1", "2", 1i64],
            rec!["9", "7", 3i64],
            rec!["8", "7", 3i64],
            rec!["5", "7", 3i64],
        ])
        .pack_by(&schema, 1)
        .unwrap();
        let mut buf = Vec::new();
        encode_compressed(&batch, &schema, 1, &mut buf).unwrap();
        let got = decode_compressed(&mut Reader::new(&buf), &schema, 1).unwrap();
        assert_eq!(got, batch);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let schema = grouped_edge_schema();
        let batch = Batch::Packed(Vec::new());
        let mut buf = Vec::new();
        encode_compressed(&batch, &schema, 1, &mut buf).unwrap();
        let got = decode_compressed(&mut Reader::new(&buf), &schema, 1).unwrap();
        assert_eq!(got, batch);
    }

    #[test]
    fn rejects_flat_batches_and_bad_key_index() {
        let schema = grouped_edge_schema();
        let flat = Batch::Flat(vec![rec!["a", "b", 1i64]]);
        let mut buf = Vec::new();
        assert!(encode_compressed(&flat, &schema, 1, &mut buf).is_err());
        let packed = figure11_packed();
        assert!(encode_compressed(&packed, &schema, 17, &mut buf).is_err());
    }

    #[test]
    fn rejects_inconsistent_member_keys() {
        let schema = grouped_edge_schema();
        let members = [rec!["2", "1", 1i64], rec!["2", "9", 1i64]];
        let batch = Batch::Packed(vec![PackedRecord {
            key: crate::Value::Str("1".into()),
            members: Rows::from_records(schema.clone(), &members).unwrap(),
        }]);
        let mut buf = Vec::new();
        assert!(encode_compressed(&batch, &schema, 1, &mut buf).is_err());
    }

    #[test]
    fn oversized_group_count_is_refused() {
        let schema = grouped_edge_schema();
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, u32::MAX);
        wire::encode_value(&crate::Value::Str("1".into()), &mut buf);
        let err = decode_compressed(&mut Reader::new(&buf), &schema, 1).unwrap_err();
        assert!(err.0.contains("bytes left"), "{err}");
    }

    #[test]
    fn a_group_count_the_bytes_cannot_hold_is_refused() {
        let schema = grouped_edge_schema();
        let five = [0, 0xff, 0xff, 0xff, 0xff];
        let err = decode_compressed(&mut Reader::new(&five), &schema, 1).unwrap_err();
        assert!(err.0.contains("compressed group count"), "{err}");
    }

    #[test]
    fn truncated_input_errors() {
        let schema = grouped_edge_schema();
        let batch = figure11_packed();
        let mut buf = Vec::new();
        encode_compressed(&batch, &schema, 1, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(decode_compressed(&mut Reader::new(&buf), &schema, 1).is_err());
    }
}
