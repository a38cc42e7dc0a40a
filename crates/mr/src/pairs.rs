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

use std::sync::Arc;

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
    buf: u32,
    /// The entry tag of the pair's run (low 8 bits) and the length of the
    /// tagged key before the entry (the high 24; 0 when the pair carries
    /// no key).
    tag_key: u32,
    /// Offset of the pair.
    off: u64,
}

const _: () = assert!(std::mem::size_of::<PairLoc>() == 16);

/// Longest tagged key a [`PairLoc`] can step over.
const KEY_LEN_MAX: usize = (1 << 24) - 1;

impl PairLoc {
    /// The pair at offset `off` of inbox buffer `buf`: a `key_len`-byte
    /// tagged key (0 when it carries none), then an entry of kind `tag`.
    /// A key longer than 16 MiB is a typed error.
    pub(crate) fn new(buf: usize, off: usize, tag: u8, key_len: usize) -> Result<Self> {
        if key_len > KEY_LEN_MAX {
            return Err(MrError::WireOverflow {
                field: "key length",
                value: key_len,
                max: KEY_LEN_MAX as u64,
            });
        }
        Ok(PairLoc {
            // One buffer per sender: fewer than 2^32.
            buf: buf as u32,
            tag_key: (key_len as u32) << 8 | u32::from(tag),
            off: off as u64,
        })
    }

    /// The entry tag of the pair's run.
    pub(crate) fn tag(&self) -> u8 {
        self.tag_key as u8
    }

    /// The pair's bytes from its start to the end of its buffer.
    pub(crate) fn tail<'a>(&self, inbox: &'a [(usize, Vec<u8>)]) -> &'a [u8] {
        &inbox[self.buf as usize].1[self.off as usize..]
    }

    /// The pair's entry, from its first byte to the end of its buffer.
    fn entry<'a>(&self, inbox: &'a [(usize, Vec<u8>)]) -> &'a [u8] {
        &self.tail(inbox)[(self.tag_key >> 8) as usize..]
    }
}

/// Where a job's reduce keys are ([`crate::Mapper::key`]), as the reduce
/// side reads them.
#[derive(Clone, Copy)]
pub(crate) enum KeyAt {
    /// A tagged key precedes every entry.
    Pushed,
    /// The key is this field of the entry: a pair is its entry.
    Field(KeyField),
    /// No pair carries a key.
    Nowhere,
}

/// How a job's pairs are laid out: the entries' schema and CSC key column,
/// and where each pair's key is.
#[derive(Clone, Copy)]
pub(crate) struct Layout<'a> {
    pub(crate) schema: &'a Arc<Schema>,
    pub(crate) compress_key: Option<usize>,
    pub(crate) key: KeyAt,
}

impl<'a> Layout<'a> {
    /// Parse the entry of kind `tag` at the cursor.
    pub(crate) fn entry(&self, r: &mut Reader<'a>, tag: u8) -> Result<EntryView<'a>> {
        Ok(EntryView::parse(r, tag, self.schema, self.compress_key)?)
    }

    /// Parse the pair at the cursor, whose entry is of kind `tag`, into its
    /// key and its entry; the cursor ends past the entry. `read` reads the
    /// key, untagged, of the type it is given, and must stop just past it
    /// (`prefix::from_field`, `ValueView::parse_field`,
    /// `wire::decode_field`). A key field is found in the entry
    /// ([`EntryView::key`]); a tagged key is read in place; a keyless
    /// job's pair has no key, and asking for one is an error.
    #[inline]
    pub(crate) fn pair<T>(
        &self,
        r: &mut Reader<'a>,
        tag: u8,
        read: impl FnOnce(&mut Reader<'a>, FieldType) -> papar_record::Result<T>,
    ) -> Result<(T, EntryView<'a>)> {
        match self.key {
            KeyAt::Pushed => {
                let ty = wire::tag_type(r.read_u8()?)?;
                let key = read(r, ty)?;
                Ok((key, self.entry(r, tag)?))
            }
            KeyAt::Field(field) => {
                let entry = self.entry(r, tag)?;
                let (ty, bytes) = entry.key(field)?;
                Ok((read(&mut Reader::new(bytes), ty)?, entry))
            }
            KeyAt::Nowhere => Err(MrError::msg("a keyless job's pairs carry no key")),
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
        match self.key {
            KeyAt::Pushed => {
                let ty = wire::tag_type(r.read_u8()?)?;
                Ok(read(&mut r, ty)?)
            }
            _ => Ok(self.pair(&mut r, loc.tag(), read)?.0),
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
    /// borrowed from the inbox. A keyless job's pairs have no key: use
    /// [`Pairs::entries`].
    pub fn iter(&self) -> impl Iterator<Item = Result<(ValueView<'a>, EntryView<'a>)>> + 'a {
        let pairs = *self;
        (0..pairs.len()).map(move |i| {
            let tag = pairs.loc(i).tag();
            (pairs.layout).pair(&mut pairs.reader(i), tag, ValueView::parse_field)
        })
    }

    /// The entries in reduce order, borrowed from the inbox. A tagged key
    /// is stepped over by the length the inbox scan recorded, not parsed
    /// again.
    pub fn entries(&self) -> impl Iterator<Item = Result<EntryView<'a>>> + 'a {
        let pairs = *self;
        (0..pairs.len()).map(move |i| pairs.entry(pairs.order[i]))
    }

    /// Decode every entry, in reduce order, appending its flat records to
    /// `out`. A tagged key is stepped over, not parsed again.
    pub fn decode_into(&self, out: &mut Vec<Record>) -> Result<()> {
        for chunk in self.order.chunks(TOUCH_AHEAD) {
            touch(self.inbox, self.locs, chunk);
            for &p in chunk {
                self.entry(p)?.decode_into(out)?;
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
                let loc = &self.locs[(p & IDX_MASK) as usize];
                let mut r = Reader::new(loc.entry(self.inbox));
                match loc.tag() {
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

    /// The key-equal runs, in order, each a [`Pairs`] of its own (a keyless
    /// job's pairs have no key, and yield an error). A pair
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

    /// The entry of the pair `p` of the sorted order names.
    fn entry(&self, p: u128) -> Result<EntryView<'a>> {
        let loc = &self.locs[(p & IDX_MASK) as usize];
        self.layout
            .entry(&mut Reader::new(loc.entry(self.inbox)), loc.tag())
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
            let tag = self.loc(i).tag();
            let (key, entry) = (self.layout).pair(&mut self.reader(i), tag, prefix::from_field)?;
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

/// Read the first byte of every pair in `order`, all at once, and use
/// nothing. The sorted order visits the inbox at random, so each pair's
/// location and bytes are likely cache misses; issued back to back, these
/// independent loads overlap, where the loop that uses the bytes would
/// wait for each in turn. The bytes are then in cache when it reads them.
fn touch(inbox: &[(usize, Vec<u8>)], locs: &[PairLoc], order: &[u128]) {
    let mut bytes = 0u8;
    for &p in order {
        bytes ^= locs[(p & IDX_MASK) as usize]
            .tail(inbox)
            .first()
            .copied()
            .unwrap_or(0);
    }
    std::hint::black_box(bytes);
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
