//! Dataset fragments in either the flat or the packed format.

use std::sync::Arc;

use crate::packed::{pack, unpack, PackedRecord};
use crate::record::Record;
use crate::{CodecError, Result, Schema};

/// A fragment of a dataset as held by one node of the cluster.
///
/// A batch is the unit the operators transform. Its *format* is part of its
/// type, because PaPar's format operators (`orig`/`pack`/`unpack`) convert
/// between the two representations while basic operators require a specific
/// one (e.g. `distribute` with the `graphVertexCut` policy consumes packed
/// low-degree groups but flat high-degree edges — paper Figure 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Batch {
    /// Original flat record layout.
    Flat(Vec<Record>),
    /// Packed `(key, group)` layout produced by the `pack` format operator.
    Packed(Vec<PackedRecord>),
}

impl Batch {
    /// An empty flat batch.
    pub fn empty() -> Self {
        Batch::Flat(Vec::new())
    }

    /// Number of *flat* records represented (packed groups count their
    /// members).
    pub fn record_count(&self) -> usize {
        match self {
            Batch::Flat(v) => v.len(),
            Batch::Packed(v) => v.iter().map(|p| p.records.len()).sum(),
        }
    }

    /// Number of top-level *entries* — what the distribute operator permutes:
    /// flat records, or whole packed groups (paper Figure 11 distributes
    /// low-degree groups as single entries).
    pub fn entry_count(&self) -> usize {
        match self {
            Batch::Flat(v) => v.len(),
            Batch::Packed(v) => v.len(),
        }
    }

    /// True when there are no records at all.
    pub fn is_empty(&self) -> bool {
        self.record_count() == 0
    }

    /// Borrow the flat records, or error if the batch is packed.
    pub fn as_flat(&self) -> Result<&[Record]> {
        match self {
            Batch::Flat(v) => Ok(v),
            Batch::Packed(_) => Err(CodecError(
                "expected flat records, found packed data (apply 'unpack' first)".into(),
            )),
        }
    }

    /// Borrow the packed groups, or error if the batch is flat.
    pub fn as_packed(&self) -> Result<&[PackedRecord]> {
        match self {
            Batch::Packed(v) => Ok(v),
            Batch::Flat(_) => Err(CodecError(
                "expected packed data, found flat records (apply 'pack' first)".into(),
            )),
        }
    }

    /// Consume into flat records, or error if packed.
    pub fn into_flat(self) -> Result<Vec<Record>> {
        match self {
            Batch::Flat(v) => Ok(v),
            Batch::Packed(_) => Err(CodecError(
                "expected flat records, found packed data (apply 'unpack' first)".into(),
            )),
        }
    }

    /// Consume into packed groups, or error if flat.
    pub fn into_packed(self) -> Result<Vec<PackedRecord>> {
        match self {
            Batch::Packed(v) => Ok(v),
            Batch::Flat(_) => Err(CodecError(
                "expected packed data, found flat records (apply 'pack' first)".into(),
            )),
        }
    }

    /// Apply the `pack` format operator: group adjacent equal keys.
    pub fn pack_by(self, key_idx: usize) -> Result<Batch> {
        match self {
            Batch::Flat(v) => Ok(Batch::Packed(pack(v, key_idx)?)),
            already @ Batch::Packed(_) => Ok(already),
        }
    }

    /// Apply the `unpack` format operator: flatten groups.
    pub fn unpack(self) -> Batch {
        match self {
            Batch::Packed(v) => Batch::Flat(unpack(v)),
            flat @ Batch::Flat(_) => flat,
        }
    }

    /// Normalize to flat records regardless of current format (the paper's
    /// rule that "all data will be unpacked to make sure the output has the
    /// same format of input" at the end of a workflow).
    pub fn flatten(self) -> Vec<Record> {
        match self {
            Batch::Flat(v) => v,
            Batch::Packed(v) => unpack(v),
        }
    }
}

/// The sizes of `n` contiguous blocks of `len` items in block order, near
/// equal: the earlier blocks take the remainder, like HDFS block
/// assignment. How an input's records split across the nodes.
pub fn block_sizes(len: usize, n: usize) -> impl Iterator<Item = usize> {
    let n = n.max(1);
    (0..n).map(move |i| len / n + usize::from(i < len % n))
}

/// A batch together with the schema its records follow.
///
/// The schema travels with the data because add-on operators extend it
/// mid-workflow (e.g. the `indegree` attribute in the hybrid-cut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    /// The field layout of every record in `batch`.
    pub schema: Arc<Schema>,
    /// The records.
    pub batch: Batch,
}

impl Dataset {
    /// Create a dataset.
    pub fn new(schema: Arc<Schema>, batch: Batch) -> Self {
        Dataset { schema, batch }
    }

    /// An empty flat dataset with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Dataset {
            schema,
            batch: Batch::empty(),
        }
    }

    /// Verify every record conforms to the schema (used by tests and debug
    /// assertions, not on the hot path).
    pub fn check_conformance(&self) -> Result<()> {
        let check = |r: &Record| -> Result<()> {
            if r.conforms_to(&self.schema) {
                Ok(())
            } else {
                Err(CodecError(format!(
                    "record {} does not conform to schema of arity {}",
                    r.display_tuple(),
                    self.schema.len()
                )))
            }
        };
        match &self.batch {
            Batch::Flat(v) => v.iter().try_for_each(check),
            Batch::Packed(v) => v.iter().flat_map(|p| p.records.iter()).try_for_each(check),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;
    use papar_config::input::FieldType;

    #[test]
    fn counts_distinguish_entries_and_records() {
        let flat = Batch::Flat(vec![rec![1, 1], rec![2, 1], rec![3, 2]]);
        assert_eq!(flat.record_count(), 3);
        assert_eq!(flat.entry_count(), 3);
        let packed = flat.clone().pack_by(1).unwrap();
        assert_eq!(packed.record_count(), 3);
        assert_eq!(packed.entry_count(), 2);
    }

    #[test]
    fn format_conversions() {
        let rows = vec![rec![1, 1], rec![2, 1]];
        let b = Batch::Flat(rows.clone());
        let packed = b.pack_by(1).unwrap();
        assert!(packed.as_packed().is_ok());
        assert!(packed.as_flat().is_err());
        let back = packed.unpack();
        assert_eq!(back.as_flat().unwrap(), rows.as_slice());
    }

    #[test]
    fn pack_is_idempotent_and_unpack_too() {
        let b = Batch::Flat(vec![rec![1, 1]]).pack_by(1).unwrap();
        let again = b.clone().pack_by(1).unwrap();
        assert_eq!(b, again);
        let f = Batch::Flat(vec![rec![1, 1]]).unpack();
        assert!(matches!(f, Batch::Flat(_)));
    }

    #[test]
    fn flatten_normalizes() {
        let rows = vec![rec![1, 1], rec![2, 1], rec![3, 2]];
        let packed = Batch::Flat(rows.clone()).pack_by(1).unwrap();
        assert_eq!(packed.flatten(), rows);
    }

    #[test]
    fn conformance_check() {
        let schema = Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Integer),
        ]));
        let good = Dataset::new(schema.clone(), Batch::Flat(vec![rec![1, 2]]));
        assert!(good.check_conformance().is_ok());
        let bad = Dataset::new(schema, Batch::Flat(vec![rec![1, "x"]]));
        assert!(bad.check_conformance().is_err());
    }

    #[test]
    fn into_conversions_error_on_wrong_format() {
        let flat = Batch::Flat(vec![rec![1]]);
        assert!(flat.clone().into_packed().is_err());
        assert!(flat.into_flat().is_ok());
    }
}
