//! A reducer's input: its span of the node's sorted pair order, borrowed
//! over the inbox.
//!
//! The reduce task sorts 16-byte locations and packed 128-bit keys, never
//! record bytes (see the engine's reduce path). A [`Pairs`] is one
//! reducer's span of that sorted order. It hands out each pair as a key
//! view and an [`EntryView`] into the inbox, and splits the span into its
//! key-equal [`Pairs::runs`], so a reducer decodes every record exactly
//! once, straight into the batch it commits, or copies its wire bytes
//! into rows without decoding it ([`Pairs::for_each_record`]) — like
//! MR-MPI's reduce callback, which receives each key and its multivalue
//! as pointers into the collated page.

use papar_config::input::FieldType;
use papar_record::prefix::{self, KeyPrefix};
use papar_record::view::{EntryView, KeyField, ValueView, ENTRY_PACKED, ENTRY_REC};
use papar_record::wire::{self, Reader};
use papar_record::{Record, Schema, Value};

use crate::{MrError, Result};

/// Width of the scan-index field of the packed sort key.
pub(crate) const IDX_BITS: u32 = 38;
/// Mask of the scan-index field: a packed key's pair index into the
/// [`PairLoc`] table.
pub(crate) const IDX_MASK: u128 = (1 << IDX_BITS) - 1;

/// Where one shuffled pair's bytes live inside the reduce inboxes: 16
/// bytes — sorting moves these and the packed keys, never the record
/// bytes. The pair's end is not stored; re-parsing the entry finds it.
#[derive(Clone, Copy)]
pub(crate) struct PairLoc {
    /// Index into the inbox slice (senders ascending).
    pub(crate) buf: u32,
    /// Length of the tagged key before the entry (tag byte); 0 when the
    /// key is a field of the entry.
    pub(crate) key_len: u32,
    /// Offset of the pair.
    pub(crate) off: u64,
}

const _: () = assert!(std::mem::size_of::<PairLoc>() == 16);

impl PairLoc {
    /// The pair's bytes from its start to the end of its buffer.
    pub(crate) fn tail<'a>(&self, inbox: &'a [(usize, Vec<u8>)]) -> &'a [u8] {
        &inbox[self.buf as usize].1[self.off as usize..]
    }

    /// The pair's entry, from its tag byte to the end of its buffer.
    fn entry<'a>(&self, inbox: &'a [(usize, Vec<u8>)]) -> &'a [u8] {
        &self.tail(inbox)[self.key_len as usize..]
    }
}

/// How a job's pairs are laid out: the entries' schema and CSC key column,
/// and where each pair's key is.
#[derive(Clone, Copy)]
pub(crate) struct Layout<'a> {
    pub(crate) schema: &'a Schema,
    pub(crate) compress_key: Option<usize>,
    /// The entry field that is the key (the mapper's
    /// [`crate::Mapper::key_field`]): a pair is its entry. `None`: a
    /// tagged key precedes every entry.
    pub(crate) key_field: Option<KeyField>,
}

impl<'a> Layout<'a> {
    /// Parse the entry at the cursor.
    pub(crate) fn entry(&self, r: &mut Reader<'a>) -> Result<EntryView<'a>> {
        Ok(EntryView::parse(r, self.schema, self.compress_key)?)
    }

    /// Parse the pair at the cursor into its key and its entry; the cursor
    /// ends past the entry. `read` reads the key, untagged, of the type it
    /// is given, and must stop just past it (`prefix::from_field`,
    /// `ValueView::parse_field`, `wire::decode_field`). A key field is
    /// found in the entry ([`EntryView::key`]); a tagged key is read in
    /// place.
    #[inline]
    pub(crate) fn pair<T>(
        &self,
        r: &mut Reader<'a>,
        read: impl FnOnce(&mut Reader<'a>, FieldType) -> papar_record::Result<T>,
    ) -> Result<(T, EntryView<'a>)> {
        match self.key_field {
            None => {
                let ty = wire::tag_type(r.read_u8()?)?;
                let key = read(r, ty)?;
                Ok((key, self.entry(r)?))
            }
            Some(field) => {
                let entry = self.entry(r)?;
                let (ty, bytes) = entry.key(field)?;
                Ok((read(&mut Reader::new(bytes), ty)?, entry))
            }
        }
    }

    /// The key of the pair at `loc`, as `read` reads it (see
    /// [`Layout::pair`]). A tagged key is read without parsing its entry.
    pub(crate) fn key<T>(
        &self,
        inbox: &'a [(usize, Vec<u8>)],
        loc: &PairLoc,
        read: impl FnOnce(&mut Reader<'a>, FieldType) -> papar_record::Result<T>,
    ) -> Result<T> {
        let mut r = Reader::new(loc.tail(inbox));
        match self.key_field {
            None => {
                let ty = wire::tag_type(r.read_u8()?)?;
                Ok(read(&mut r, ty)?)
            }
            Some(_) => Ok(self.pair(&mut r, read)?.0),
        }
    }
}

/// One reducer's pairs, in reduce order, borrowed from the node's inbox.
///
/// Every pair was validated when the reduce task scanned its inbox, so
/// the views handed out here re-read bytes that are known to parse.
#[derive(Clone, Copy)]
pub struct Pairs<'a> {
    inbox: &'a [(usize, Vec<u8>)],
    locs: &'a [PairLoc],
    /// This span of the sorted packed keys; each names its [`PairLoc`].
    order: &'a [u128],
    layout: Layout<'a>,
    /// Flat records across the span's entries.
    records: usize,
    /// Whether the packed keys alone cut the runs: keys were sorted, no
    /// prefix was inexact, and every entry is one record (see
    /// [`Pairs::runs`]).
    runs_from_keys: bool,
}

impl<'a> Pairs<'a> {
    pub(crate) fn new(
        inbox: &'a [(usize, Vec<u8>)],
        locs: &'a [PairLoc],
        order: &'a [u128],
        layout: Layout<'a>,
        records: usize,
        runs_from_keys: bool,
    ) -> Self {
        Pairs {
            inbox,
            locs,
            order,
            layout,
            records,
            runs_from_keys,
        }
    }

    /// No pairs: what a reducer that received nothing is handed.
    pub(crate) fn empty(layout: Layout<'a>) -> Self {
        Pairs::new(&[], &[], &[], layout, 0, false)
    }

    /// The schema of every shuffled record.
    pub fn schema(&self) -> &'a Schema {
        self.layout.schema
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the reducer received nothing.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Flat records across the entries (a packed group counts its
    /// members), so an output vector can be sized exactly before decoding.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// The pairs in reduce order, each as its key and its entry, both
    /// borrowed from the inbox.
    pub fn iter(&self) -> impl Iterator<Item = Result<(ValueView<'a>, EntryView<'a>)>> + 'a {
        let pairs = *self;
        (0..pairs.len()).map(move |i| {
            pairs
                .layout
                .pair(&mut pairs.reader(i), ValueView::parse_field)
        })
    }

    /// Decode every entry, in reduce order, appending its flat records to
    /// `out`. A tagged key is stepped over by the length the inbox scan
    /// recorded, not parsed again.
    pub fn decode_into(&self, out: &mut Vec<Record>) -> Result<()> {
        for chunk in self.order.chunks(TOUCH_AHEAD) {
            touch(self.inbox, self.locs, chunk);
            for &p in chunk {
                let mut r = Reader::new(self.locs[(p & IDX_MASK) as usize].entry(self.inbox));
                self.layout.entry(&mut r)?.decode_into(out)?;
            }
        }
        Ok(())
    }

    /// Hand every flat record's wire bytes to `each`, in reduce order,
    /// borrowed from the inbox: a record entry's record, a packed group's
    /// members in group order. Nothing is decoded. A CSC-compressed group
    /// holds no record bytes, and is an error.
    pub fn for_each_record(&self, mut each: impl FnMut(&'a [u8])) -> Result<()> {
        let schema = self.layout.schema;
        for chunk in self.order.chunks(TOUCH_AHEAD) {
            touch(self.inbox, self.locs, chunk);
            for &p in chunk {
                let mut r = Reader::new(self.locs[(p & IDX_MASK) as usize].entry(self.inbox));
                match r.read_u8()? {
                    ENTRY_REC => each(wire::record_bytes(&mut r, schema)?),
                    ENTRY_PACKED => {
                        wire::skip_value(&mut r)?;
                        for _ in 0..r.read_u32()? {
                            each(wire::record_bytes(&mut r, schema)?);
                        }
                    }
                    _ => {
                        return Err(MrError::msg(
                            "gathering rows found a compressed group, which holds no record bytes",
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    /// Copy every flat record's bytes, in reduce order, into `out`
    /// ([`Pairs::for_each_record`]): the rows of the reducer's records,
    /// with no record decoded. Rows of a fixed-width schema are sized
    /// exactly first.
    pub fn gather_rows(&self, out: &mut Vec<u8>) -> Result<()> {
        if let Some(width) = self.layout.schema.binary_record_width() {
            out.reserve_exact(self.records * width);
        }
        self.for_each_record(|record| out.extend_from_slice(record))
    }

    /// The key-equal runs, in order, each a [`Pairs`] of its own. A pair
    /// starts a new run when its key is not equal (`Value::cmp`) to the
    /// run's *first* key. When the keys were sorted, no prefix was
    /// inexact and every entry is one record, a run is where the packed
    /// `(reducer, key prefix)` stays the same, and holds one record per
    /// pair: no pair is parsed. Otherwise equal exact key prefixes prove a
    /// pair belongs without decoding; only a prefix tie with an inexact
    /// side decodes the two keys.
    pub fn runs(&self) -> Runs<'a> {
        Runs {
            pairs: *self,
            next: 0,
            touched: 0,
        }
    }

    /// Pair `i`'s location.
    fn loc(&self, i: usize) -> &'a PairLoc {
        &self.locs[(self.order[i] & IDX_MASK) as usize]
    }

    /// A cursor at pair `i`.
    fn reader(&self, i: usize) -> Reader<'a> {
        Reader::new(self.loc(i).tail(self.inbox))
    }

    /// Pair `i`'s decoded key.
    fn key(&self, i: usize) -> Result<Value> {
        self.layout.key(self.inbox, self.loc(i), wire::decode_field)
    }

    /// Where the run starting at `start` ends, and the records it holds.
    fn run_end(&self, start: usize) -> Result<(usize, usize)> {
        if self.runs_from_keys {
            let key = self.order[start] >> IDX_BITS;
            let len = (self.order[start..].iter())
                .position(|&p| p >> IDX_BITS != key)
                .unwrap_or(self.len() - start);
            return Ok((start + len, len));
        }
        let head = |i: usize| -> Result<(KeyPrefix, usize)> {
            let (key, entry) = self.layout.pair(&mut self.reader(i), prefix::from_field)?;
            Ok((key, entry.record_count()))
        };
        let (first, mut records) = head(start)?;
        let mut first_key: Option<Value> = None;
        let mut end = start + 1;
        while end < self.len() {
            let (key, n) = head(end)?;
            // A strict prefix difference is truthful: a different key.
            if key.packed66() != first.packed66() {
                break;
            }
            if !(key.exact && first.exact) {
                if first_key.is_none() {
                    first_key = Some(self.key(start)?);
                }
                if Some(self.key(end)?) != first_key {
                    break;
                }
            }
            records += n;
            end += 1;
        }
        Ok((end, records))
    }
}

/// Pairs whose entries [`touch`] reads at once, ahead of their use.
const TOUCH_AHEAD: usize = 32;

/// Read the entry tag of every pair in `order`, all at once, and use
/// nothing. The sorted order visits the inbox at random, so each pair's
/// location and bytes are likely cache misses; issued back to back, these
/// independent loads overlap, where the loop that uses the bytes would
/// wait for each in turn. The bytes are then in cache when it reads them.
fn touch(inbox: &[(usize, Vec<u8>)], locs: &[PairLoc], order: &[u128]) {
    let mut tags = 0u8;
    for &p in order {
        tags ^= locs[(p & IDX_MASK) as usize].entry(inbox)[0];
    }
    std::hint::black_box(tags);
}

/// The key-equal runs of a [`Pairs`]; see [`Pairs::runs`].
pub struct Runs<'a> {
    pairs: Pairs<'a>,
    /// Where the next run starts.
    next: usize,
    /// Pairs before this one have been touched: a run is handed out with
    /// its pairs and the next [`TOUCH_AHEAD`] touched.
    touched: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = Result<Pairs<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.next;
        if start >= self.pairs.len() {
            return None;
        }
        Some(match self.pairs.run_end(start) {
            Ok((end, records)) => {
                self.next = end;
                let ahead = (end + TOUCH_AHEAD).min(self.pairs.len());
                if self.touched < ahead {
                    let from = self.touched.max(start);
                    touch(
                        self.pairs.inbox,
                        self.pairs.locs,
                        &self.pairs.order[from..ahead],
                    );
                    self.touched = ahead;
                }
                Ok(Pairs {
                    order: &self.pairs.order[start..end],
                    records,
                    ..self.pairs
                })
            }
            Err(e) => {
                self.next = self.pairs.len();
                Err(e)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::PairLoc;

    #[test]
    fn pair_loc_is_sixteen_bytes() {
        // `HotPathStats::staged_bytes` charges 16 bytes per location.
        assert_eq!(std::mem::size_of::<PairLoc>(), 16);
    }
}
