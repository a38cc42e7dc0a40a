//! A reducer's input: its span of the node's pair order, borrowed over
//! the inbox.
//!
//! The reduce task orders references to pairs, never record bytes (see
//! the engine's reduce path). A pair of a fixed-width record run is found
//! by its number alone, at a constant stride inside its [`StrideRun`], so
//! such runs order 4-byte scan indices, or whole runs when the job has
//! no key order; every other pair has a 16-byte [`PairLoc`] and is
//! ordered by packed 128-bit keys. A [`Pairs`] is one reducer's span of
//! that order. It hands out each pair as a key view and an [`EntryView`]
//! into the inbox, and splits the span into its key-equal
//! [`Pairs::runs`], so a reducer decodes every record exactly once,
//! straight into the batch it commits, or copies its wire bytes into rows
//! without decoding it ([`Pairs::for_each_record`]) — like MR-MPI's
//! reduce callback, which receives each key and its multivalue as
//! pointers into the collated page.

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

    /// Bytes of the tagged key before the entry (0 when there is none).
    fn key_len(&self) -> usize {
        (self.tag_key >> 8) as usize
    }
}

/// A run of fixed-width record pairs: `count` pairs of one width each,
/// back to back from byte `off` of inbox buffer `buf`. Its pairs are
/// numbered `first..first + count`: their scan indices, or, once a keyless
/// job's runs are ordered, their positions in that order. No pair of it
/// needs a location of its own.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StrideRun {
    pub(crate) reducer: u32,
    pub(crate) base: u64,
    pub(crate) first: u32,
    pub(crate) count: u32,
    pub(crate) buf: u32,
    pub(crate) off: usize,
}

/// The bytes from the start of the stride pair numbered `number` to the
/// end of its buffer. `runs` ascend by `first`, and one holds the pair.
/// A few runs (a sort's reducer has one per sender) are counted without
/// a branch: a sorted order names runs in no pattern a branch predictor
/// could learn, and each mispredicted search would stall the loads
/// [`Pairs::touch`] means to overlap.
#[inline]
fn stride_tail<'a>(
    inbox: &'a [(usize, Vec<u8>)],
    runs: &[StrideRun],
    width: usize,
    number: u32,
) -> &'a [u8] {
    let after = if runs.len() <= FEW_RUNS {
        runs.iter().filter(|r| r.first <= number).count()
    } else {
        runs.partition_point(|r| r.first <= number)
    };
    let run = &runs[after.saturating_sub(1)];
    &inbox[run.buf as usize].1[run.off + (number - run.first) as usize * width..]
}

/// The first `len` bytes of `tail`: rows of a stride run, which the scan
/// checked lie in its segment.
fn row(tail: &[u8], len: usize) -> Result<&[u8]> {
    tail.get(..len)
        .ok_or_else(|| MrError::msg("a stride run ends past its inbox buffer"))
}

/// Runs [`stride_tail`] counts rather than searches.
const FEW_RUNS: usize = 16;

/// A span of a node's pair order, as the reduce task built it.
#[derive(Clone, Copy)]
pub(crate) enum Order<'a> {
    /// Sorted packed keys, each naming its [`PairLoc`] by its low
    /// [`IDX_BITS`].
    Packed {
        locs: &'a [PairLoc],
        keys: &'a [u128],
    },
    /// Scan indices of pairs of `runs` (which ascend by scan index),
    /// `width` bytes each.
    Indexed {
        runs: &'a [StrideRun],
        width: usize,
        idx: &'a [u32],
    },
    /// Whole runs, numbered in order: pairs `start..start + len`.
    Runs {
        runs: &'a [StrideRun],
        width: usize,
        start: u32,
        len: usize,
    },
}

impl<'a> Order<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Order::Packed { keys, .. } => keys.len(),
            Order::Indexed { idx, .. } => idx.len(),
            Order::Runs { len, .. } => *len,
        }
    }

    /// Pair `i`'s bytes to the end of its buffer, its entry tag and the
    /// length of its tagged key.
    #[inline]
    pub(crate) fn at(&self, inbox: &'a [(usize, Vec<u8>)], i: usize) -> (&'a [u8], u8, usize) {
        match *self {
            Order::Packed { locs, keys } => {
                let loc = &locs[(keys[i] & IDX_MASK) as usize];
                (loc.tail(inbox), loc.tag(), loc.key_len())
            }
            Order::Indexed { runs, width, idx } => {
                (stride_tail(inbox, runs, width, idx[i]), ENTRY_REC, 0)
            }
            Order::Runs {
                runs, width, start, ..
            } => (
                stride_tail(inbox, runs, width, start + i as u32),
                ENTRY_REC,
                0,
            ),
        }
    }

    /// Pairs `from..to` of this span.
    fn slice(&self, from: usize, to: usize) -> Self {
        match *self {
            Order::Packed { locs, keys } => Order::Packed {
                locs,
                keys: &keys[from..to],
            },
            Order::Indexed { runs, width, idx } => Order::Indexed {
                runs,
                width,
                idx: &idx[from..to],
            },
            Order::Runs {
                runs, width, start, ..
            } => Order::Runs {
                runs,
                width,
                start: start + from as u32,
                len: to - from,
            },
        }
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

    /// The key of the pair whose bytes start `tail` and whose entry is of
    /// kind `tag`, as `read` reads it (see [`Layout::pair`]). A tagged key
    /// is read without parsing its entry.
    pub(crate) fn key<T>(
        &self,
        tail: &'a [u8],
        tag: u8,
        read: impl FnOnce(&mut Reader<'a>, FieldType) -> papar_record::Result<T>,
    ) -> Result<T> {
        let mut r = Reader::new(tail);
        match self.key {
            KeyAt::Pushed => {
                let ty = wire::tag_type(r.read_u8()?)?;
                Ok(read(&mut r, ty)?)
            }
            _ => Ok(self.pair(&mut r, tag, read)?.0),
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
    order: Order<'a>,
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
        order: Order<'a>,
        layout: Layout<'a>,
        records: usize,
        runs_from_keys: bool,
    ) -> Self {
        Pairs {
            inbox,
            order,
            layout,
            records,
            runs_from_keys,
        }
    }

    /// No pairs: what a reducer that received nothing is handed.
    pub(crate) fn empty(layout: Layout<'a>) -> Self {
        let order = Order::Packed {
            locs: &[],
            keys: &[],
        };
        Pairs::new(&[], order, layout, 0, false)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the reducer received nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            let (tail, tag, _) = pairs.at(i);
            (pairs.layout).pair(&mut Reader::new(tail), tag, ValueView::parse_field)
        })
    }

    /// The entries in reduce order, borrowed from the inbox. A tagged key
    /// is stepped over by the length the inbox scan recorded, not parsed
    /// again.
    pub fn entries(&self) -> impl Iterator<Item = Result<EntryView<'a>>> + 'a {
        let pairs = *self;
        (0..pairs.len()).map(move |i| pairs.entry(i))
    }

    /// Decode every entry, in reduce order, appending its flat records to
    /// `out`. A tagged key is stepped over, not parsed again.
    pub fn decode_into(&self, out: &mut Vec<Record>) -> Result<()> {
        self.each_touched(|(tail, tag, key_len)| {
            let entry = self.layout.entry(&mut Reader::new(&tail[key_len..]), tag)?;
            Ok(entry.decode_into(out)?)
        })
    }

    /// Hand every flat record's wire bytes to `each`, in reduce order,
    /// borrowed from the inbox: a record entry's record, a packed group's
    /// members in group order. Nothing is decoded. A CSC-compressed group
    /// holds no record bytes, and is an error.
    pub fn for_each_record(&self, mut each: impl FnMut(&'a [u8])) -> Result<()> {
        let schema = self.layout.schema;
        self.each_touched(|(tail, tag, key_len)| {
            let mut r = Reader::new(&tail[key_len..]);
            match tag {
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
            Ok(())
        })
    }

    /// Copy every flat record's bytes, in reduce order, into `out`
    /// ([`Pairs::for_each_record`]): the rows of the reducer's records,
    /// with no record decoded. Rows of a fixed-width schema are sized
    /// exactly first; pairs of stride runs are copied `width` bytes at a
    /// time, found by number and never parsed, and whole runs at once. The
    /// indexed copy does not touch pairs ahead ([`Pairs::touch`]): on Fig
    /// 8's partitions that took 16–21 ms of reduce CPU where the plain
    /// loop takes 11–15 ms.
    pub fn gather_rows(&self, out: &mut Vec<u8>) -> Result<()> {
        let Some(width) = self.layout.schema.binary_record_width() else {
            return self.for_each_record(|record| out.extend_from_slice(record));
        };
        out.reserve_exact(self.records * width);
        match self.order {
            Order::Indexed { runs, idx, .. } => {
                for &number in idx {
                    let tail = stride_tail(self.inbox, runs, width, number);
                    out.extend_from_slice(row(tail, width)?);
                }
            }
            Order::Runs {
                runs, start, len, ..
            } => {
                let end = start as usize + len;
                for run in runs {
                    let first = run.first as usize;
                    let last = first + run.count as usize;
                    let (from, to) = (first.max(start as usize), last.min(end));
                    if from < to {
                        let bytes = &self.inbox[run.buf as usize].1[run.off..];
                        out.extend_from_slice(row(
                            &bytes[(from - first) * width..],
                            (to - from) * width,
                        )?);
                    }
                }
            }
            Order::Packed { .. } => self.for_each_record(|record| out.extend_from_slice(record))?,
        }
        Ok(())
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

    /// Pair `i`'s bytes to the end of its buffer, its tag and the length of
    /// its tagged key.
    fn at(&self, i: usize) -> (&'a [u8], u8, usize) {
        self.order.at(self.inbox, i)
    }

    /// Pair `i`'s entry.
    fn entry(&self, i: usize) -> Result<EntryView<'a>> {
        let (tail, tag, key_len) = self.at(i);
        self.layout.entry(&mut Reader::new(&tail[key_len..]), tag)
    }

    /// Pair `i`'s decoded key.
    fn key(&self, i: usize) -> Result<Value> {
        let (tail, tag, _) = self.at(i);
        self.layout.key(tail, tag, wire::decode_field)
    }

    /// Call `each` on every pair in order (its bytes, tag and tagged key
    /// length, as [`Pairs::at`] finds them), [`TOUCH_AHEAD`] pairs at a
    /// time, each batch touched first ([`Pairs::touch`]).
    fn each_touched(
        &self,
        mut each: impl FnMut((&'a [u8], u8, usize)) -> Result<()>,
    ) -> Result<()> {
        for from in (0..self.len()).step_by(TOUCH_AHEAD) {
            let to = (from + TOUCH_AHEAD).min(self.len());
            self.touch(from, to);
            (from..to).try_for_each(|i| each(self.at(i)))?;
        }
        Ok(())
    }

    /// Read the first byte of pairs `from..to`, all at once, and use
    /// nothing. The sorted order visits the inbox at random, so each pair's
    /// location and bytes are likely cache misses; issued back to back,
    /// these independent loads overlap, where the loop that uses the bytes
    /// would wait for each in turn. The bytes are then in cache when it
    /// reads them.
    fn touch(&self, from: usize, to: usize) {
        let mut bytes = 0u8;
        // The packed order is read directly: through `Order::at`, the
        // hybrid-cut's group+split, which touches ahead of many short runs,
        // spent ≈15 % more reduce CPU.
        if let Order::Packed { locs, keys } = self.order {
            for &p in &keys[from..to] {
                let loc = &locs[(p & IDX_MASK) as usize];
                bytes ^= loc.tail(self.inbox).first().copied().unwrap_or(0);
            }
        } else {
            for i in from..to {
                bytes ^= self.at(i).0.first().copied().unwrap_or(0);
            }
        }
        std::hint::black_box(bytes);
    }

    /// Where the run starting at `start` ends, and the records it holds.
    fn run_end(&self, start: usize) -> Result<(usize, usize)> {
        if let (true, Order::Packed { keys, .. }) = (self.runs_from_keys, self.order) {
            let key = keys[start] >> IDX_BITS;
            let len = (keys[start..].iter())
                .position(|&p| p >> IDX_BITS != key)
                .unwrap_or(self.len() - start);
            return Ok((start + len, len));
        }
        let head = |i: usize| -> Result<(KeyPrefix, usize)> {
            let (tail, tag, _) = self.at(i);
            let (key, entry) =
                (self.layout).pair(&mut Reader::new(tail), tag, prefix::from_field)?;
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

/// Pairs whose entries [`Pairs::touch`] reads at once, ahead of their use.
const TOUCH_AHEAD: usize = 32;

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
                    self.pairs.touch(self.touched.max(start), ahead);
                    self.touched = ahead;
                }
                Ok(Pairs {
                    order: self.pairs.order.slice(start, end),
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
