//! Records: flat tuples of typed values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::value::Value;
use crate::{CodecError, Result, Schema};

/// Most values a record stores in place.
const INLINE_VALUES: usize = 4;

/// What an unused inline slot holds.
const UNUSED: Value = Value::Int(0);

/// One record — a tuple of values laid out according to some [`Schema`].
///
/// Records do not carry their schema; datasets do. That keeps the per-record
/// footprint small, which matters because the partitioning workloads move
/// tens of millions of records through the shuffle. Up to four values are
/// stored in place, which fits a BLAST index entry and an edge with one
/// add-on attribute, so decoding such a record allocates nothing.
#[derive(Clone, Default)]
pub struct Record {
    row: Row,
}

/// Private so that inline slots past `len` are never read.
#[derive(Clone)]
enum Row {
    /// `vals[..len]` are the values; the other slots hold `Int(0)`.
    Inline {
        len: u8,
        vals: [Value; INLINE_VALUES],
    },
    /// A record that outgrew the inline slots.
    Heap(Vec<Value>),
}

impl Default for Row {
    fn default() -> Self {
        Row::Inline {
            len: 0,
            vals: [UNUSED; INLINE_VALUES],
        }
    }
}

// Four values plus a length byte, padded to the values' alignment.
const _: () = assert!(std::mem::size_of::<Record>() == 72);

impl Record {
    /// Build a record from its values.
    pub fn new(values: Vec<Value>) -> Self {
        if values.len() > INLINE_VALUES {
            return Record {
                row: Row::Heap(values),
            };
        }
        values.into_iter().collect()
    }

    /// Build a record from exactly the values `values` yields, stopping at
    /// the first error. Up to four values are written straight into the
    /// inline row; more go to one exact-size heap vector. This is what
    /// the decoders use: no empty record first and no push per field.
    pub(crate) fn try_from_exact<E>(
        values: impl ExactSizeIterator<Item = std::result::Result<Value, E>>,
    ) -> std::result::Result<Record, E> {
        let len = values.len();
        if len > INLINE_VALUES {
            let mut heap = Vec::with_capacity(len);
            for v in values {
                heap.push(v?);
            }
            return Ok(Record {
                row: Row::Heap(heap),
            });
        }
        let mut vals = [UNUSED; INLINE_VALUES];
        for (slot, v) in vals.iter_mut().zip(values) {
            *slot = v?;
        }
        Ok(Record {
            row: Row::Inline {
                len: len as u8,
                vals,
            },
        })
    }

    /// The values in schema order.
    pub fn values(&self) -> &[Value] {
        match &self.row {
            Row::Inline { len, vals } => &vals[..usize::from(*len)],
            Row::Heap(values) => values,
        }
    }

    fn values_mut(&mut self) -> &mut [Value] {
        match &mut self.row {
            Row::Inline { len, vals } => &mut vals[..usize::from(*len)],
            Row::Heap(values) => values,
        }
    }

    /// Value at a field index.
    pub fn value(&self, idx: usize) -> Option<&Value> {
        self.values().get(idx)
    }

    /// Value at a field index, with a descriptive error.
    pub fn require(&self, idx: usize) -> Result<&Value> {
        self.value(idx).ok_or_else(|| {
            CodecError(format!(
                "field index {idx} out of range for record of arity {}",
                self.arity()
            ))
        })
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Append an attribute value (add-on operators). A fifth value moves
    /// the record's values to the heap.
    pub fn push(&mut self, v: Value) {
        match &mut self.row {
            Row::Inline { len, vals } if usize::from(*len) < INLINE_VALUES => {
                vals[usize::from(*len)] = v;
                *len += 1;
            }
            Row::Inline { vals, .. } => {
                let full = std::mem::replace(vals, [UNUSED; INLINE_VALUES]);
                let mut values = Vec::with_capacity(2 * INLINE_VALUES);
                values.extend(full);
                values.push(v);
                self.row = Row::Heap(values);
            }
            Row::Heap(values) => values.push(v),
        }
    }

    /// Remove and return the value at `idx` (schema `without_field`).
    ///
    /// # Panics
    ///
    /// When `idx` is not below the arity, like `Vec::remove`.
    pub fn remove(&mut self, idx: usize) -> Value {
        match &mut self.row {
            Row::Inline { len, vals } => {
                let n = usize::from(*len);
                assert!(idx < n, "removal index {idx} out of range for arity {n}");
                let v = std::mem::replace(&mut vals[idx], UNUSED);
                vals[idx..n].rotate_left(1);
                *len -= 1;
                v
            }
            Row::Heap(values) => values.remove(idx),
        }
    }

    /// Overwrite the value at `idx`.
    pub fn set(&mut self, idx: usize, v: Value) {
        self.values_mut()[idx] = v;
    }

    /// Consume the record, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        match self.row {
            Row::Inline { len, vals } => vals.into_iter().take(usize::from(len)).collect(),
            Row::Heap(values) => values,
        }
    }

    /// True when every value's runtime type matches the schema.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.arity() == schema.len()
            && self
                .values()
                .iter()
                .zip(schema.fields())
                .all(|(v, f)| v.field_type() == f.ty)
    }

    /// Render the record in the paper's figure notation: `{94, 100, 74, 89}`.
    pub fn display_tuple(&self) -> String {
        let inner = self
            .values()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{inner}}}")
    }
}

impl FromIterator<Value> for Record {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut rec = Record::default();
        for v in iter {
            rec.push(v);
        }
        rec
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("values", &self.values())
            .finish()
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Record {}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Record {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

/// Build a record from anything convertible to values.
///
/// ```
/// use papar_record::{rec, Value};
/// let r = rec![0, 94, 0, 74];
/// assert_eq!(r.value(1), Some(&Value::Int(94)));
/// ```
#[macro_export]
macro_rules! rec {
    ($($v:expr),* $(,)?) => {
        <$crate::Record as ::core::iter::FromIterator<$crate::Value>>::from_iter([
            $($crate::Value::from($v)),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::input::FieldType;

    #[test]
    fn construction_and_access() {
        let r = rec![0, 94, 0, 74];
        assert_eq!(r.arity(), 4);
        assert_eq!(r.value(1), Some(&Value::Int(94)));
        assert_eq!(r.value(9), None);
        assert!(r.require(9).is_err());
    }

    #[test]
    fn mutation() {
        let mut r = rec!["v1", "v2"];
        r.push(Value::Long(3));
        assert_eq!(r.arity(), 3);
        assert_eq!(r.remove(2), Value::Long(3));
        r.set(0, Value::Str("v9".into()));
        assert_eq!(r.value(0).unwrap().as_str(), Some("v9"));
    }

    #[test]
    fn push_spills_past_four_values_and_mutation_follows() {
        let mut r = Record::default();
        for i in 0..6 {
            r.push(Value::Int(i));
            assert_eq!(r.arity(), i as usize + 1);
            assert!(matches!(r.row, Row::Inline { .. }) == (i < 4), "after {i}");
        }
        assert_eq!(r, rec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.remove(1), Value::Int(1));
        assert_eq!(r.remove(4), Value::Int(5));
        r.set(3, Value::Long(9));
        // A spilled record of four values equals the inline one in value,
        // order and hash: they see values, not where they are stored.
        let inline = rec![0, 2, 3, 9i64];
        assert!(matches!(r.row, Row::Heap(_)));
        assert!(matches!(inline.row, Row::Inline { .. }));
        assert_eq!(r, inline);
        assert_eq!(r.cmp(&inline), Ordering::Equal);
        let h = |rec: &Record| {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            rec.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&r), h(&inline));
        let values = vec![Value::Int(0), Value::Int(2), Value::Int(3), Value::Long(9)];
        assert_eq!(r.into_values(), values);
        assert_eq!(inline.into_values(), values);
    }

    #[test]
    fn try_from_exact_builds_in_place_spills_past_four_and_stops_at_an_error() {
        for n in 0..7 {
            let values: Vec<Value> = (0..n).map(Value::Int).collect();
            let rec =
                Record::try_from_exact(values.iter().cloned().map(Ok::<_, CodecError>)).unwrap();
            assert_eq!(rec, Record::new(values.clone()), "n={n}");
            assert_eq!(matches!(rec.row, Row::Inline { .. }), n <= 4, "n={n}");
            if let Row::Heap(heap) = &rec.row {
                assert_eq!(heap.capacity(), heap.len(), "one exact-size vector");
            }
        }
        let failing = (0..6).map(|i| match i {
            3 => Err(CodecError("field 3".into())),
            i => Ok(Value::Int(i)),
        });
        assert_eq!(
            Record::try_from_exact(failing.clone().take(4)),
            Err(CodecError("field 3".into()))
        );
        assert_eq!(
            Record::try_from_exact(failing),
            Err(CodecError("field 3".into()))
        );
    }

    #[test]
    fn inline_remove_shifts_and_keeps_the_rest() {
        let mut r = rec!["a", "b", "c", "d"];
        assert_eq!(r.remove(0), Value::from("a"));
        assert_eq!(r, rec!["b", "c", "d"]);
        r.push(Value::from("e"));
        assert_eq!(r, rec!["b", "c", "d", "e"]);
        assert_eq!(r.into_values().len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inline_remove_past_arity_panics() {
        rec![1, 2].remove(2);
    }

    #[test]
    fn debug_names_the_values() {
        assert_eq!(
            format!("{:?}", rec![1, "x"]),
            r#"Record { values: [Int(1), Str("x")] }"#
        );
    }

    #[test]
    fn conformance() {
        let schema = Schema::new(vec![("a", FieldType::Integer), ("b", FieldType::Str)]);
        assert!(rec![1, "x"].conforms_to(&schema));
        assert!(!rec![1, 2].conforms_to(&schema));
        assert!(!rec![1].conforms_to(&schema));
    }

    #[test]
    fn display_matches_paper_notation() {
        // Figure 1's first index entry.
        assert_eq!(rec![0, 94, 0, 74].display_tuple(), "{0, 94, 0, 74}");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(rec![1, 5] < rec![2, 0]);
        assert!(rec![1, 5] < rec![1, 6]);
        assert!(rec![1, 5] < rec![1, 5, 0, 0, 0]);
        assert_eq!(rec![3, 3], rec![3, 3]);
    }
}
