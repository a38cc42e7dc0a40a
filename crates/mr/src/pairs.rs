//! A reducer's input: its span of the node's sorted pair order, borrowed
//! over the inbox.
//!
//! The reduce task sorts 16-byte locations and packed 128-bit keys, never
//! record bytes (see the engine's reduce path). A [`Pairs`] is one
//! reducer's span of that sorted order. It hands out each pair as a key
//! view and an [`EntryView`] into the inbox, and splits the span into its
//! key-equal [`Pairs::runs`], so a reducer decodes every record exactly
//! once, straight into the batch it commits — like MR-MPI's reduce
//! callback, which receives each key and its multivalue as pointers into
//! the collated page.

use papar_record::prefix;
use papar_record::view::{EntryView, ValueView, ENTRY_REC};
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
    /// Length of the tagged key; the entry (tag byte) follows it.
    pub(crate) key_len: u32,
    /// Offset of the tagged key.
    pub(crate) key_off: u64,
}

const _: () = assert!(std::mem::size_of::<PairLoc>() == 16);

impl PairLoc {
    /// The pair's bytes from its key to the end of its buffer.
    pub(crate) fn tail<'a>(&self, inbox: &'a [(usize, Vec<u8>)]) -> &'a [u8] {
        &inbox[self.buf as usize].1[self.key_off as usize..]
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
    schema: &'a Schema,
    compress_key: Option<usize>,
    /// Flat records across the span's entries.
    records: usize,
}

impl<'a> Pairs<'a> {
    pub(crate) fn new(
        inbox: &'a [(usize, Vec<u8>)],
        locs: &'a [PairLoc],
        order: &'a [u128],
        schema: &'a Schema,
        compress_key: Option<usize>,
        records: usize,
    ) -> Self {
        Pairs {
            inbox,
            locs,
            order,
            schema,
            compress_key,
            records,
        }
    }

    /// No pairs: what a reducer that received nothing is handed.
    pub(crate) fn empty(schema: &'a Schema, compress_key: Option<usize>) -> Self {
        Pairs::new(&[], &[], &[], schema, compress_key, 0)
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
            let mut r = pairs.reader(i);
            let key = ValueView::parse(&mut r)?;
            let entry = EntryView::parse(&mut r, pairs.schema, pairs.compress_key)?;
            Ok((key, entry))
        })
    }

    /// Decode every entry, in reduce order, appending its flat records to
    /// `out`. Each key is stepped over by the length the inbox scan
    /// recorded, not parsed again.
    pub fn decode_into(&self, out: &mut Vec<Record>) -> Result<()> {
        for &p in self.order {
            let loc = &self.locs[(p & IDX_MASK) as usize];
            let mut r = Reader::new(&loc.tail(self.inbox)[loc.key_len as usize..]);
            EntryView::parse(&mut r, self.schema, self.compress_key)?.decode_into(out)?;
        }
        Ok(())
    }

    /// Copy every pair's record bytes, in reduce order, into `out`, sized
    /// exactly first: the rows of a fixed-width schema, with no record
    /// decoded. A pair holding anything but one record is an error.
    pub fn gather_rows(&self, out: &mut Vec<u8>) -> Result<()> {
        let width = self
            .schema
            .binary_record_width()
            .ok_or_else(|| MrError::msg("gathering rows needs a fixed-width schema"))?;
        out.reserve_exact(self.len() * width);
        for &p in self.order {
            let loc = &self.locs[(p & IDX_MASK) as usize];
            let entry = &loc.tail(self.inbox)[loc.key_len as usize..];
            match entry.split_first() {
                Some((&ENTRY_REC, row)) if row.len() >= width => {
                    out.extend_from_slice(&row[..width]);
                }
                _ => {
                    return Err(MrError::msg(
                        "gathering rows found an entry that is not one record",
                    ))
                }
            }
        }
        Ok(())
    }

    /// The key-equal runs, in order, each a [`Pairs`] of its own. A pair
    /// starts a new run when its key is not equal (`Value::cmp`) to the
    /// run's *first* key. Equal exact key prefixes prove a pair belongs
    /// without decoding; only a prefix tie with an inexact side decodes
    /// the two keys.
    pub fn runs(&self) -> Runs<'a> {
        Runs {
            pairs: *self,
            next: 0,
        }
    }

    /// A cursor at pair `i`'s key.
    fn reader(&self, i: usize) -> Reader<'a> {
        Reader::new(self.locs[(self.order[i] & IDX_MASK) as usize].tail(self.inbox))
    }

    /// Pair `i`'s decoded key.
    fn key(&self, i: usize) -> Result<Value> {
        Ok(wire::decode_value(&mut self.reader(i))?)
    }

    /// Where the run starting at `start` ends, and the records it holds.
    fn run_end(&self, start: usize) -> Result<(usize, usize)> {
        let head = |i: usize| -> Result<(prefix::KeyPrefix, usize)> {
            let mut r = self.reader(i);
            let key = prefix::from_wire(&mut r)?;
            let entry = EntryView::parse(&mut r, self.schema, self.compress_key)?;
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

/// The key-equal runs of a [`Pairs`]; see [`Pairs::runs`].
pub struct Runs<'a> {
    pairs: Pairs<'a>,
    /// Where the next run starts.
    next: usize,
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
