//! The MapReduce engine: map over node-local data, shuffle by reduce key,
//! reduce per reducer, under the virtual clock.
//!
//! The execution follows the paper's Figures 9 and 11 exactly:
//!
//! 1. every node runs one **mapper** over its local fragments of the input
//!    dataset(s) and pushes `(reduce-key, entry)` pairs into an [`Emit`],
//!    borrowing both from the fragments;
//! 2. [`Emit`] asks the **partitioner** for the pair's reducer (range-
//!    sampled for sort, hashed for group; a distribute mapper names the
//!    reducer itself) and encodes the pair straight into a run of that
//!    reducer's segment — map output is bytes from the moment it exists,
//!    like MR-MPI's `KeyValue::add`; each node's segments, in reducer
//!    order, form the message the node is sent, and the messages are
//!    shuffled all-to-all;
//! 3. every node runs the **reducer** for each reducer id it owns
//!    (`reducer % num_nodes`), handing it a [`Pairs`] view of its sorted
//!    pairs, borrowed over the inbox, and writes its output fragment under
//!    the job's output name with the reducer id as the fragment ordinal.
//!
//! A job may name inputs it is the last reader of ([`MapReduceJob::release`]):
//! once every map task has committed, those datasets leave every store,
//! primaries and replicas, before the shuffle, so they are not resident
//! through the reduce phase.
//!
//! Determinism: the engine orders each reducer's pairs by `(key, mapper,
//! emission index)` (or `(run base, mapper, emission index)` when
//! key-sorting is off), so results are independent of arrival order — the
//! property behind the paper's "same partitions" correctness claim. No pair
//! carries either index: inboxes list senders in ascending order and a
//! segment keeps its pairs in emission order, so a pair's position in the
//! inbox is its place in that order.
//!
//! Within a phase, node tasks execute concurrently on scoped OS threads up
//! to the cluster's [`Cluster::threads`] budget, joining at the existing
//! BSP barriers (map → shuffle → reduce). Determinism survives threading
//! because nothing a worker does depends on scheduling: fault decisions are
//! pre-drawn per `(job, phase, node, attempt)` at the phase barrier,
//! straggler factors are read up front, every worker only reads `&Cluster`
//! and writes its own pre-allocated result slot, and all cluster mutation
//! (stats, recovery log, output commits) happens on the driver thread in
//! node order after the join.

use papar_record::batch::{Batch, Dataset, RowRef};
use papar_record::compress;
use papar_record::packed::PackedRecord;
use papar_record::prefix;
use papar_record::value::INLINE_STR_CAP;
use papar_record::view::{KeyField, ENTRY_PACKED, ENTRY_PACKED_CSC, ENTRY_REC};
use papar_record::wire::{self, Reader};
use papar_record::{Record, Schema, Value};
use papar_trace::{
    duration_ns, CostModel, Counters, JobTrace, PhaseKind, PhaseTrace, SkewHistogram, TaskTrace,
};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use crate::cluster::Cluster;
use crate::fault::{Fault, RecoveryAction, RetryPolicy};
use crate::pairs::{KeyAt, Layout, PairLoc, Pairs, IDX_BITS, IDX_MASK};
use crate::stats::{HotPathStats, JobStats, NetModel, RecoveryStats};
use crate::timer::TaskTimer;
use crate::{MrError, Result, TaskPhase};

/// One shuffled unit: either a flat record or a whole packed group (the
/// hybrid-cut shuffles packed low-degree groups as single entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A flat record.
    Rec(Record),
    /// A packed group.
    Packed(PackedRecord),
}

impl Entry {
    /// Number of flat records this entry represents.
    pub fn record_count(&self) -> usize {
        self.as_ref().record_count()
    }

    /// Borrow this entry as an [`EntryRef`].
    pub fn as_ref(&self) -> EntryRef<'_> {
        match self {
            Entry::Rec(r) => EntryRef::Rec(r),
            Entry::Packed(p) => EntryRef::Packed(p),
        }
    }
}

/// An [`Entry`] borrowed from where it lives — usually a map task's
/// input fragment — so emitting it encodes the bytes without a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryRef<'a> {
    /// A flat record.
    Rec(&'a Record),
    /// A packed group.
    Packed(&'a PackedRecord),
    /// A flat record kept as its row bytes; emitting it copies them.
    Row(RowRef<'a>),
}

impl<'a> EntryRef<'a> {
    /// Every entry of a batch, borrowed, in batch order: records, groups,
    /// or rows.
    pub fn all(batch: &'a Batch) -> impl Iterator<Item = EntryRef<'a>> {
        /// One form's iterator, matched once per entry.
        enum All<R, P, W> {
            Flat(R),
            Packed(P),
            Rows(W),
        }
        let mut all = match batch {
            Batch::Flat(records) => All::Flat(records.iter()),
            Batch::Packed(groups) => All::Packed(groups.iter()),
            Batch::Rows(rows) => All::Rows(rows.iter()),
        };
        std::iter::from_fn(move || match &mut all {
            All::Flat(records) => records.next().map(EntryRef::Rec),
            All::Packed(groups) => groups.next().map(EntryRef::Packed),
            All::Rows(rows) => rows.next().map(EntryRef::Row),
        })
    }

    /// Number of flat records this entry represents.
    pub fn record_count(self) -> usize {
        match self {
            EntryRef::Rec(_) | EntryRef::Row(_) => 1,
            EntryRef::Packed(p) => p.members.len(),
        }
    }

    /// The entry's key field `field`: the record's, or a packed group's
    /// first member's. Borrowed from a record, read from a row.
    pub fn key(self, field: usize) -> Result<Cow<'a, Value>> {
        let row = match self {
            EntryRef::Rec(r) => return Ok(Cow::Borrowed(r.require(field)?)),
            EntryRef::Row(row) => row,
            EntryRef::Packed(p) => (p.members.iter().next())
                .ok_or_else(|| MrError::msg("packed group with no members"))?,
        };
        Ok(Cow::Owned(row.field(field)?))
    }

    /// An owned copy of the entry; a row decodes.
    pub fn to_entry(self) -> Entry {
        match self {
            EntryRef::Rec(r) => Entry::Rec(r.clone()),
            EntryRef::Packed(p) => Entry::Packed(p.clone()),
            EntryRef::Row(row) => Entry::Rec(row.to_record()),
        }
    }
}

/// Execution context handed to mappers and reducers.
#[derive(Debug, Clone)]
pub struct TaskCtx {
    /// The node this task runs on.
    pub node: usize,
    /// Cluster size.
    pub num_nodes: usize,
    /// Number of reducers of the running job.
    pub num_reducers: usize,
    /// For reduce tasks, the reducer id; `None` in map tasks.
    pub reducer: Option<usize>,
}

/// One local input fragment handed to a mapper.
#[derive(Debug, Clone)]
pub struct MapInput {
    /// Dataset name this fragment belongs to.
    pub name: String,
    /// Global fragment ordinal (scatter chunk or producing reducer id) —
    /// what distribute mappers use to compute global entry offsets.
    pub ordinal: u32,
    /// The records (shared with the node's store; reading is free).
    pub data: Arc<Dataset>,
}

/// A map task: local fragments in, `(reduce-key, entry)` pairs emitted.
///
/// `Sync` because one task object is shared by all node workers of a phase
/// (tasks are stateless transforms; per-node state lives in the inputs).
pub trait Mapper: Sync {
    /// Push this node's local input fragments as keyed entries into `out`,
    /// in emission order (the order is part of the reduce-side total
    /// order). Keys and entries are borrowed, typically from `inputs`;
    /// the emitter encodes them at once. `inputs` holds the node's
    /// fragments in (dataset, ordinal) order; nodes without local
    /// fragments get an empty slice.
    fn map(&self, ctx: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> Result<()>;

    /// Where the reduce key of each pushed entry comes from, and so which
    /// [`Emit`] push the mapper uses. The default: each entry is pushed
    /// with a key of its own ([`Emit::push`]), which travels before it.
    fn key(&self) -> PairKey {
        PairKey::Pushed
    }

    /// The fields of each pushed entry the shuffle carries, in order, as a
    /// record of the job's [`MapReduceJob::map_output_schema`]: the mapper
    /// routes an entry on all of its fields, and [`Emit`] encodes only
    /// these. The default, `None`, ships every field. Only a keyless
    /// mapper ([`PairKey::None`]) projects: the reducers would read a key
    /// field from the projected entry.
    fn projection(&self) -> Option<&[usize]> {
        None
    }
}

/// Where the reduce key of a mapper's entries comes from
/// ([`Mapper::key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKey {
    /// Each entry is pushed with a key of its own ([`Emit::push`]): the
    /// partitioner routes it, and it travels, tagged, before the entry.
    Pushed,
    /// The key is this field of every entry: the mapper pushes each entry
    /// alone ([`Emit::push_entry`]), a pair is its entry, and the reducers
    /// read the key from it.
    Field(usize),
    /// No key: the mapper names each entry's reducer ([`Emit::push_to`])
    /// and the job does not sort by key. A reducer sees its pairs in
    /// `(run base, mapper, emission index)` order, the base being the
    /// last one the mapper set ([`Emit::set_base`]).
    None,
}

/// A map task's sink: each pushed pair is routed to its reducer and
/// wire-encoded into that reducer's segment, as an entry of the segment's
/// open run.
///
/// A run is `[base u64][count u32][entry tag u8]` and then `count` pairs:
/// the entry alone, or its tagged key and then the entry
/// ([`PairKey::Pushed`]). A pair opens a new run in its segment when its
/// entry tag differs from the open run's, or when the mapper has set
/// another base since that run opened ([`Emit::set_base`]).
pub struct Emit<'a> {
    partitioner: &'a dyn Partitioner,
    num_reducers: usize,
    schema: &'a Schema,
    compress_key: Option<usize>,
    /// One segment per reducer: its header's placeholder, then its runs.
    segs: &'a mut [Vec<u8>],
    /// Each reducer's open run.
    runs: Vec<OpenRun>,
    /// The base the next opened run carries.
    base: u64,
    /// The node this map task runs on: pairs for its reducers stay local.
    node: usize,
    /// Pairs pushed to each destination node: what its reduce task sizes
    /// its sort buffers by.
    sent: &'a mut [usize],
    /// Per-reducer records/bytes, when tracing.
    skew: Option<&'a mut SkewHistogram>,
    /// Pairs pushed so far.
    pairs: usize,
    /// The record bytes of every pair bound for another node, plus a
    /// segment header per such segment: the shuffle's lower bound.
    lo: u64,
    /// The last row schema found equal to `schema`: rows of it encode as
    /// their bytes after one pointer comparison.
    row_schema: Option<Arc<Schema>>,
    /// The mapper's [`Mapper::key`].
    key: PairKey,
    /// The mapper's [`Mapper::projection`].
    projection: Option<&'a [usize]>,
}

/// A reducer's open run in its segment: where its header starts, its base
/// and entry tag, and the pairs it holds so far (0: no run is open).
#[derive(Clone, Copy, Default)]
struct OpenRun {
    at: usize,
    base: u64,
    tag: u8,
    count: usize,
}

impl OpenRun {
    /// Write the run's pair count into its header; no run, no write.
    fn close(&self, seg: &mut [u8]) -> Result<()> {
        if self.count > 0 {
            let count = wire_u32("run count", self.count)?;
            seg[self.at + 8..self.at + 12].copy_from_slice(&count.to_le_bytes());
        }
        Ok(())
    }
}

/// What a map task's [`Emit`] counted, once its runs are closed.
struct Emitted {
    pairs: usize,
    lo: u64,
}

impl<'a> Emit<'a> {
    /// A sink over `segs` (one empty buffer per reducer of `job`) for the
    /// map task on node `node` of `sent.len()` nodes.
    fn new(
        job: &'a MapReduceJob<'a>,
        node: usize,
        segs: &'a mut [Vec<u8>],
        sent: &'a mut [usize],
        skew: Option<&'a mut SkewHistogram>,
    ) -> Self {
        Emit {
            partitioner: job.partitioner,
            num_reducers: job.num_reducers,
            schema: &job.map_output_schema,
            compress_key: job.compress_key,
            runs: vec![OpenRun::default(); segs.len()],
            segs,
            base: 0,
            node,
            sent,
            skew,
            pairs: 0,
            lo: 0,
            row_schema: None,
            key: job.mapper.key(),
            projection: job.mapper.projection(),
        }
    }

    /// Route `(key, entry)` to its reducer and encode it into that
    /// reducer's segment: the tagged key, then the entry. The pair carries
    /// no header; its segment names the reducer once and its run the entry
    /// tag. A mapper that declares another [`PairKey`] pushes with
    /// [`Emit::push_entry`] or [`Emit::push_to`] instead.
    pub fn push(&mut self, key: &Value, entry: EntryRef<'_>) -> Result<()> {
        if self.key != PairKey::Pushed {
            return Err(MrError::msg(format!(
                "the mapper's pairs are keyed {:?}: it cannot push a key",
                self.key
            )));
        }
        let reducer = self.partitioner.reducer_for(key, self.num_reducers)?;
        self.encode(reducer, Some(key), entry)
    }

    /// Route an entry by its key field ([`PairKey::Field`]) — the
    /// record's, or a packed group's first member's — and encode only the
    /// entry into its reducer's segment: the reducer reads the key from
    /// it, so no pushed key can disagree with its entry.
    pub fn push_entry(&mut self, entry: EntryRef<'_>) -> Result<()> {
        let PairKey::Field(field) = self.key else {
            return Err(MrError::msg(format!(
                "the mapper's pairs are keyed {:?}: it declares no key field",
                self.key
            )));
        };
        let key = entry.key(field)?;
        let reducer = self.partitioner.reducer_for(&key, self.num_reducers)?;
        self.encode(reducer, None, entry)
    }

    /// Encode `entry` alone into reducer `reducer`'s segment, for a
    /// keyless mapper ([`PairKey::None`]): no key is built, routed or
    /// sent.
    pub fn push_to(&mut self, reducer: usize, entry: EntryRef<'_>) -> Result<()> {
        if self.key != PairKey::None {
            return Err(MrError::msg(format!(
                "the mapper's pairs are keyed {:?}: it must push each entry by its key",
                self.key
            )));
        }
        self.encode(reducer, None, entry)
    }

    /// Make `base` the base of every run opened from now on: each
    /// reducer's next pair opens a new run. A keyless job's reducer orders
    /// its runs by base, so a mapper that pushes a fragment's entries in
    /// order, based at the fragment's global offset, delivers them in
    /// global order.
    pub fn set_base(&mut self, base: u64) {
        self.base = base;
    }

    /// Encode the pair `(key?, entry)` into reducer `reducer`'s segment,
    /// in its open run or in a new one.
    fn encode(&mut self, reducer: usize, key: Option<&Value>, entry: EntryRef<'_>) -> Result<()> {
        if reducer >= self.num_reducers {
            // Defensive re-check for third-party partitioners that
            // return in-band instead of erroring.
            return Err(MrError::PartitionOutOfRange {
                id: reducer as i64,
                num_reducers: self.num_reducers,
            });
        }
        let nodes = self.sent.len();
        self.sent[reducer % nodes] += 1;
        let remote = reducer % nodes != self.node;
        let buf = &mut self.segs[reducer];
        if buf.is_empty() {
            // Filled in by `seal_segments` once the task commits.
            buf.extend_from_slice(&[0; SEGMENT_HEADER]);
            self.lo += SEGMENT_HEADER as u64 * u64::from(remote);
        }
        let len_before = buf.len();
        let tag = entry_tag(entry, self.compress_key);
        let run = &mut self.runs[reducer];
        if run.count == 0 || run.tag != tag || run.base != self.base {
            run.close(buf)?;
            *run = OpenRun {
                at: buf.len(),
                base: self.base,
                tag,
                count: 0,
            };
            buf.extend_from_slice(&self.base.to_le_bytes());
            buf.extend_from_slice(&[0; 4]);
            buf.push(tag);
        }
        run.count += 1;
        if let Some(key) = key {
            wire::encode_value(key, buf);
        }
        let (proj, schema) = (self.projection, self.schema);
        let record_bytes = match entry {
            EntryRef::Rec(r) => {
                let start = buf.len();
                encode_projected(r, schema, proj, buf)?;
                buf.len() - start
            }
            EntryRef::Row(row) => {
                check_layout(&mut self.row_schema, row.schema(), schema, proj)?;
                let start = buf.len();
                copy_row(row.as_bytes(), row.schema(), proj, buf);
                buf.len() - start
            }
            EntryRef::Packed(p) => {
                check_layout(&mut self.row_schema, p.members.schema(), schema, proj)?;
                encode_group(p, schema, self.compress_key, proj, buf)?
            }
        };
        self.lo += record_bytes as u64 * u64::from(remote);
        if let Some(sk) = self.skew.as_deref_mut() {
            sk.records[reducer] += entry.record_count() as u64;
            sk.bytes[reducer] += (buf.len() - len_before) as u64;
        }
        self.pairs += 1;
        Ok(())
    }

    /// Close every open run: what the task pushed is now whole segments.
    fn finish(self) -> Result<Emitted> {
        for (run, seg) in self.runs.iter().zip(self.segs.iter_mut()) {
            run.close(seg)?;
        }
        Ok(Emitted {
            pairs: self.pairs,
            lo: self.lo,
        })
    }
}

/// Assignment of reduce keys to reducers (`Sync`: shared across node
/// workers, like [`Mapper`]).
pub trait Partitioner: Sync {
    /// The reducer (in `0..num_reducers`) that handles `key`, or
    /// [`MrError::PartitionOutOfRange`] when the key maps outside the
    /// job's reducer range (a buggy or mis-bound policy must fail
    /// loudly, not silently skew the last reducer).
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> Result<usize>;
}

/// A reduce task: a reducer's pairs in deterministic order in, one batch
/// per output dataset out (`Sync`: shared across node workers, like
/// [`Mapper`]).
pub trait Reducer: Sync {
    /// Produce one reducer's output fragments: slot 0 goes to the job's
    /// primary output, slot `j + 1` to the j-th extra output of
    /// [`Cluster::run_job_multi`] (a fused group→split stage routes its
    /// groups to the split's destinations this way). `pairs` borrows the
    /// node's inbox; each entry decodes once, where the reducer puts it.
    fn reduce(&self, ctx: &TaskCtx, pairs: Pairs<'_>) -> Result<Vec<Batch>>;
}

/// Blanket adapters so plain closures can serve as map/reduce tasks.
pub struct FnMapper<F>(pub F);

impl<F> Mapper for FnMapper<F>
where
    F: Fn(&TaskCtx, &[MapInput], &mut Emit<'_>) -> Result<()> + Sync,
{
    fn map(&self, ctx: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> Result<()> {
        (self.0)(ctx, inputs, out)
    }
}

/// The map task of a job keyed by a field of its entries (sort, group):
/// every input entry, borrowed from its fragment, pushed alone
/// ([`Emit::push_entry`]); both sides read the key from the entry.
pub struct KeyedMapper {
    /// The key field of every entry (a packed group's: of its first member).
    pub key_field: usize,
}

impl Mapper for KeyedMapper {
    fn map(&self, _: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> Result<()> {
        for mi in inputs {
            for entry in EntryRef::all(&mi.data.batch) {
                out.push_entry(entry)?;
            }
        }
        Ok(())
    }

    fn key(&self) -> PairKey {
        PairKey::Field(self.key_field)
    }
}

/// Closure adapter for reducers.
pub struct FnReducer<F>(pub F);

impl<F> Reducer for FnReducer<F>
where
    F: Fn(&TaskCtx, Pairs<'_>) -> Result<Vec<Batch>> + Sync,
{
    fn reduce(&self, ctx: &TaskCtx, pairs: Pairs<'_>) -> Result<Vec<Batch>> {
        (self.0)(ctx, pairs)
    }
}

/// Hash partitioner (group-by-key jobs).
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> Result<usize> {
        Ok((key.stable_hash() % num_reducers as u64) as usize)
    }
}

/// Identity partitioner: the key *is* the reducer id (distribute jobs set
/// the temporary reduce-key to the target partition, paper Figure 9 step 4).
/// A key outside `0..num_reducers` is a policy bug and errors; it used to
/// be silently clamped onto the edge reducers, skewing the output. So is a
/// key that is no integer at all ([`MrError::NonIntegerReducerKey`]); it
/// used to land on reducer 0.
pub struct IdentityPartitioner;

impl Partitioner for IdentityPartitioner {
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> Result<usize> {
        let id = key
            .as_i64()
            .ok_or_else(|| MrError::NonIntegerReducerKey { key: key.clone() })?;
        if id < 0 || id as u64 >= num_reducers as u64 {
            return Err(MrError::PartitionOutOfRange { id, num_reducers });
        }
        Ok(id as usize)
    }
}

/// A MapReduce job description.
pub struct MapReduceJob<'a> {
    /// Job name (the workflow operator id), used in stats.
    pub name: String,
    /// Input dataset names (usually one; the hybrid-cut distribute job
    /// reads both split outputs).
    pub inputs: Vec<String>,
    /// Output dataset name.
    pub output: String,
    /// Number of reducers (= output fragments).
    pub num_reducers: usize,
    /// Schema of the entries mappers emit (map may extend the input schema
    /// via add-ons before the shuffle; a projecting mapper's entries ship
    /// as records of it, [`Mapper::projection`]).
    pub map_output_schema: Arc<Schema>,
    /// Schema of the reducer output (usually the same).
    pub output_schema: Arc<Schema>,
    /// The map task.
    pub mapper: &'a dyn Mapper,
    /// Reduce-key to reducer assignment (unused by a keyless mapper, which
    /// names each entry's reducer itself).
    pub partitioner: &'a dyn Partitioner,
    /// The reduce task.
    pub reducer: &'a dyn Reducer,
    /// Sort each reducer's pairs by key before reducing (sort/group jobs);
    /// otherwise pairs arrive in `(run base, mapper, emission)` order
    /// (distribute jobs). A keyless job ([`PairKey::None`]) has no key to
    /// sort by.
    pub sort_by_key: bool,
    /// Reverse the key order in the reduce-side sort (Table I's descending
    /// sort flag). Only meaningful with `sort_by_key`.
    pub descending: bool,
    /// CSC-compress packed entries on the wire, factoring the key column at
    /// this index out of group members (paper Section III-D); `None` sends
    /// packed groups uncompressed.
    pub compress_key: Option<usize>,
    /// Inputs this job is the last reader of: removed from every store,
    /// primaries and replicas, once the map barrier commits and before
    /// the shuffle. A reduce-phase crash therefore no longer restores
    /// (or charges) them — nothing reads them again.
    pub release: &'a [String],
}

impl MapReduceJob<'_> {
    /// How this job's pairs lie in the inboxes. A key field past the
    /// entries' fields, and a keyless job that sorts by key, are errors.
    fn layout(&self) -> Result<Layout<'_>> {
        let schema = &self.map_output_schema;
        let key = match self.mapper.key() {
            PairKey::Pushed => KeyAt::Pushed,
            PairKey::Field(field) => KeyAt::Field(KeyField::new(schema, field)?),
            PairKey::None if self.sort_by_key => {
                return Err(MrError::msg(format!(
                    "job '{}' sorts by key, but its mapper pushes no key",
                    self.name
                )))
            }
            PairKey::None => KeyAt::Nowhere,
        };
        if let Some(proj) = self.mapper.projection() {
            if proj.len() != schema.len() || !matches!(key, KeyAt::Nowhere) {
                return Err(MrError::msg(format!(
                    "job '{}' projects its entries: a projection needs a keyless \
                     mapper and one field per map output field",
                    self.name
                )));
            }
        }
        Ok(Layout {
            schema,
            compress_key: self.compress_key,
            key,
        })
    }
}

/// Check that rows of `from`, projected onto `proj`, have `schema`'s field
/// types, so their bytes ship as they are. A match is remembered in
/// `seen`: the next row of that schema costs one pointer comparison.
fn check_layout(
    seen: &mut Option<Arc<Schema>>,
    from: &Arc<Schema>,
    schema: &Schema,
    proj: Option<&[usize]>,
) -> Result<()> {
    if seen.as_ref().is_some_and(|s| Arc::ptr_eq(s, from)) {
        return Ok(());
    }
    let at = |i: usize| proj.map_or(i, |proj| proj[i]);
    let follows = (proj.is_some() || from.len() == schema.len())
        && (schema.fields().iter().enumerate())
            .all(|(i, f)| from.fields().get(at(i)).is_some_and(|g| g.ty == f.ty));
    if !follows {
        return Err(MrError::msg(format!(
            "rows of {from:?} do not ship as records of the map output schema {schema:?}"
        )));
    }
    *seen = Some(Arc::clone(from));
    Ok(())
}

/// The tag of `entry` on the wire: a record, a packed group, or a
/// CSC-compressed one.
fn entry_tag(entry: EntryRef<'_>, compress_key: Option<usize>) -> u8 {
    match (entry, compress_key) {
        (EntryRef::Rec(_) | EntryRef::Row(_), _) => ENTRY_REC,
        (EntryRef::Packed(_), None) => ENTRY_PACKED,
        (EntryRef::Packed(_), Some(_)) => ENTRY_PACKED_CSC,
    }
}

/// Append one row of `schema`, projected onto `proj`, to the outbox.
fn copy_row(row: &[u8], schema: &Schema, proj: Option<&[usize]>, buf: &mut Vec<u8>) {
    match proj {
        None => buf.extend_from_slice(row),
        Some(proj) => wire::project_record(row, schema, proj, buf),
    }
}

/// Encode a packed group, without its tag: its key, its member count, and
/// its members' row bytes (at once, projected row by row, or as CSC
/// columns). Returns the bytes its members take as records: for a CSC
/// group, the columns plus each member's share of the factored key.
fn encode_group(
    p: &PackedRecord,
    schema: &Schema,
    compress_key: Option<usize>,
    proj: Option<&[usize]>,
    buf: &mut Vec<u8>,
) -> Result<usize> {
    let start = buf.len();
    wire::encode_value(&p.key, buf);
    // The key's width without its tag: what each member's key field
    // takes as a record.
    let key_w = buf.len() - start - 1;
    buf.extend_from_slice(&wire_u32("group size", p.members.len())?.to_le_bytes());
    let members = buf.len();
    match (compress_key, proj) {
        (Some(key_idx), _) => {
            compress::encode_columns(&p.members, schema, key_idx, proj, buf)?;
            return Ok(buf.len() - members + key_w * p.members.len());
        }
        (None, None) => buf.extend_from_slice(p.members.as_bytes()),
        (None, Some(_)) => {
            for row in p.members.iter() {
                copy_row(row.as_bytes(), row.schema(), proj, buf);
            }
        }
    }
    Ok(buf.len() - members)
}

/// Encode `rec` as a record of `schema`: its fields `proj` names, when
/// there is a projection, else all of them.
fn encode_projected(
    rec: &Record,
    schema: &Schema,
    proj: Option<&[usize]>,
    buf: &mut Vec<u8>,
) -> Result<()> {
    let Some(proj) = proj else {
        return Ok(wire::encode_record(rec, schema, buf)?);
    };
    for (&i, field) in proj.iter().zip(schema.fields()) {
        wire::encode_field(rec.require(i).map_err(MrError::from)?, field.ty, buf)?;
    }
    Ok(())
}

/// Checked narrowing for the shuffle wire format's u32 fields — a segment
/// of 4 GiB or more must fail loudly, not wrap.
fn wire_u32(field: &'static str, value: usize) -> Result<u32> {
    u32::try_from(value).map_err(|_| MrError::WireOverflow {
        field,
        value,
        max: u32::MAX.into(),
    })
}

/// Bytes of a segment header: the reducer id and the byte length of the
/// runs that follow, both `u32` little-endian.
const SEGMENT_HEADER: usize = 8;

/// Bytes of a run header: the base (`u64`), the pair count (`u32`) and
/// the entry tag, little-endian.
const RUN_HEADER: usize = 13;

/// Turn a committed map task's per-reducer segments into its node
/// messages: write each non-empty segment's header, then give node `to`
/// its reducers' segments (`to`, `to + n`, …) in reducer order. A node's
/// first segment becomes its message without a copy; the rest are
/// appended after one exact reservation.
fn seal_segments(segs: &mut [Vec<u8>], n: usize) -> Result<Vec<Vec<u8>>> {
    for (reducer, seg) in segs.iter_mut().enumerate() {
        if !seg.is_empty() {
            let len = wire_u32("segment length", seg.len() - SEGMENT_HEADER)?;
            seg[..4].copy_from_slice(&wire_u32("reducer", reducer)?.to_le_bytes());
            seg[4..SEGMENT_HEADER].copy_from_slice(&len.to_le_bytes());
        }
    }
    Ok((0..n)
        .map(|to| {
            let Some(first) = (to..segs.len()).step_by(n).find(|&r| !segs[r].is_empty()) else {
                return Vec::new();
            };
            let rest = (first + n..segs.len()).step_by(n);
            let mut msg = std::mem::take(&mut segs[first]);
            msg.reserve_exact(rest.clone().map(|r| segs[r].len()).sum());
            for r in rest {
                msg.extend_from_slice(&segs[r]);
            }
            msg
        })
        .collect())
}

// ---------------------------------------------------------------------------
// The reduce path: borrowed views + packed 128-bit sort keys.
//
// Each reducer sees its pairs in the total order `(reducer, key, mapper,
// emission index)` — key order reversed when descending — or, when
// `!sort_by_key`, `(reducer, run base, mapper, emission index)`.
// `(mapper, emission index)` is unique per pair, so any correct sort,
// stable or not, sequential or parallel, produces the same permutation.
//
// On the wire a node's message is one segment per reducer it owns, in
// reducer order: `[reducer u32][byte length u32]` and then that sender's
// runs for that reducer, nothing else. A run is `[base u64][count u32]
// [entry tag u8]` and then `count` pairs. A pair is its entry, untagged,
// when the key is a field of it (`PairKey::Field`: sort and group jobs) or
// there is no key (`PairKey::None`: distribute), and otherwise a tagged key
// and then the entry.
// The reduce task scans each message once, reads a segment header
// whenever the previous segment has ended and a run header whenever the
// previous run has, and records a 16-byte [`PairLoc`] locating each pair's
// bytes and its run's tag. A job without key order orders its runs by
// `(reducer, base, scan index)` and concatenates them: no pair is
// compared. A keyed job packs each pair's sort order into a single
// `u128`:
//
// ```text
//   bit 127..104   reducer id              (24 bits)
//   bit 103..38    key prefix `packed66`   (66 bits; 0 when !sort_by_key,
//                                           bitwise-NOT'd when descending)
//   bit  37..0     scan index              (38 bits)
// ```
//
// Inboxes are built sender-ascending and each sender's pairs for one
// reducer sit in one segment in emission order, so among one reducer's
// pairs the scan index ascends exactly like `(mapper, emission index)`;
// other reducers' segments interleaved between them only skip indices.
// Unsigned `u128` comparison therefore equals the order above *except*
// where two pairs share a reducer and an inexact key prefix; those tie runs
// are re-sorted from decoded keys afterwards (see [`fixup_prefix_ties`]).
// Jobs with ≥ 2^24 reducers and inboxes with ≥ 2^38 pairs do not fit and
// fail with [`MrError::WireOverflow`].
// ---------------------------------------------------------------------------

/// Width of the reducer-id field of the packed sort key.
const REDUCER_BITS: u32 = 24;
/// Mask of a 66-bit `packed66` key prefix (before shifting into position).
const KEY66_MASK: u128 = (1 << 66) - 1;

fn pack_pair(reducer: u32, key66: u128, idx: usize) -> u128 {
    ((reducer as u128) << (66 + IDX_BITS)) | (key66 << IDX_BITS) | idx as u128
}

/// Heap allocations needed to own one decoded `Value`: only strings too
/// long to be stored in place allocate.
fn value_allocs(v: &Value) -> u64 {
    v.as_str().is_some_and(|s| s.len() > INLINE_STR_CAP) as u64
}

/// Re-sort runs of pairs whose packed keys tie on an *inexact* prefix.
///
/// A tie on `(reducer, key66)` means `Value::cmp` is `Equal` only when both
/// prefixes are exact (see `papar_record::prefix`); runs where every member
/// is exact are already correctly ordered (equal keys, ascending scan index)
/// and are skipped without decoding. Otherwise the run's keys are decoded
/// and stably re-sorted by the true key order — stability keeps truly-equal
/// keys in ascending scan order, preserving the total reduce order.
///
/// `any_inexact` is whether the inbox scan saw an inexact prefix at all.
/// When it did not, every run is all-exact, so the runs are only counted
/// into `tie_pairs` and no member's key is parsed again.
fn fixup_prefix_ties(
    layout: Layout<'_>,
    descending: bool,
    any_inexact: bool,
    inbox: &[(usize, Vec<u8>)],
    locs: &[PairLoc],
    packed: &mut [u128],
    hot: &mut HotPathStats,
) -> Result<()> {
    let loc = |p: u128| &locs[(p & IDX_MASK) as usize];
    let mut i = 0;
    while i < packed.len() {
        let run_key = packed[i] >> IDX_BITS;
        let mut j = i + 1;
        while j < packed.len() && packed[j] >> IDX_BITS == run_key {
            j += 1;
        }
        if j - i >= 2 {
            hot.tie_pairs += (j - i) as u64;
            let all_exact = !any_inexact
                || packed[i..j].iter().try_fold(true, |acc, &p| {
                    let kp = layout.key(inbox, loc(p), prefix::from_field)?;
                    Ok::<_, MrError>(acc && kp.exact)
                })?;
            if !all_exact {
                let mut keyed: Vec<(Value, u128)> = Vec::with_capacity(j - i);
                for &p in &packed[i..j] {
                    let (value, len) = layout.key(inbox, loc(p), |r, ty| {
                        let start = r.position();
                        let value = wire::decode_field(r, ty)?;
                        Ok((value, r.position() - start))
                    })?;
                    // The key's tagged width, whichever way it travelled.
                    hot.staged_bytes +=
                        1 + len as u64 + std::mem::size_of::<(Value, u128)>() as u64;
                    hot.staged_allocs += value_allocs(&value);
                    keyed.push((value, p));
                }
                // Stable sort: members arrive in ascending scan order, so
                // truly-equal keys keep that order after the re-sort.
                keyed.sort_by(|a, b| {
                    let ord = a.0.cmp(&b.0);
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                for (k, (_, p)) in keyed.into_iter().enumerate() {
                    packed[i + k] = p;
                }
            }
        }
        i = j;
    }
    Ok(())
}

/// One run of an inbox: the reducer its segment is for, its base, and its
/// pairs' scan indices `first..first + count`.
struct RunSpan {
    reducer: u32,
    base: u64,
    first: usize,
    count: usize,
}

/// What the inbox scan learns besides each pair's location and sort key.
struct Scan {
    /// Flat records per owned reducer (slot `rid / n`): every reducer can
    /// size its output exactly before it decodes.
    records_by_slot: Vec<usize>,
    /// Whether any key prefix was inexact.
    any_inexact: bool,
    /// Whether every entry is one flat record.
    all_records: bool,
    /// The pairs' bytes, which their reducers decode exactly once.
    materialized_bytes: u64,
    /// Every run, in scan order.
    runs: Vec<RunSpan>,
}

/// Scan node `node`'s inbox once: check every segment and run header, then
/// record each pair's [`PairLoc`] into `locs` and, when the job sorts by
/// key, its packed sort key into `packed`. `pairs` is how many pairs the
/// senders counted for this node. A segment for a reducer out of range or
/// owned by another node, a segment running past its message, a run header
/// cut short, a run of no pairs or of an unknown entry tag, a run claiming
/// more pairs than its segment holds, a pair running past its segment and a
/// pair count other than `pairs` are typed errors.
fn scan_inbox(
    job: &MapReduceJob<'_>,
    node: usize,
    n: usize,
    inbox: &[(usize, Vec<u8>)],
    pairs: usize,
    locs: &mut Vec<PairLoc>,
    packed: &mut Vec<u128>,
) -> Result<Scan> {
    let layout = job.layout()?;
    locs.clear();
    packed.clear();
    let mut scan = Scan {
        records_by_slot: vec![0; job.num_reducers.div_ceil(n)],
        any_inexact: false,
        all_records: true,
        materialized_bytes: 0,
        runs: Vec::new(),
    };
    let malformed = |detail: String| MrError::MalformedShuffle { node, detail };
    // Only an untagged record of no fields takes no bytes: a run of those
    // may end where its segment does.
    let empty_pairs = !matches!(layout.key, KeyAt::Pushed) && layout.schema.fields().is_empty();
    for (bi, (from, buf)) in inbox.iter().enumerate() {
        let mut segments = Reader::new(buf);
        while segments.remaining() > 0 {
            let reducer = segments.read_u32().map_err(MrError::from)?;
            let len = segments.read_u32().map_err(MrError::from)? as usize;
            if reducer as usize >= job.num_reducers {
                return Err(MrError::PartitionOutOfRange {
                    id: reducer.into(),
                    num_reducers: job.num_reducers,
                });
            }
            if reducer as usize % n != node {
                return Err(malformed(format!(
                    "node {from} sent a segment for reducer {reducer}, which node {} owns",
                    reducer as usize % n
                )));
            }
            let start = segments.position();
            if segments.read_bytes(len).is_err() {
                return Err(malformed(format!(
                    "node {from}'s segment for reducer {reducer} claims {len} bytes, \
                     {} remain in its message",
                    buf.len() - start
                )));
            }
            // The segment's runs, through a reader that ends where the
            // segment does: a pair running past it fails to parse.
            let mut r = Reader::new(&buf[..start + len]);
            r.read_bytes(start).map_err(MrError::from)?;
            while r.remaining() > 0 {
                if r.remaining() < RUN_HEADER {
                    return Err(malformed(format!(
                        "node {from}'s segment for reducer {reducer} ends {} byte(s) into \
                         a {RUN_HEADER}-byte run header",
                        r.remaining()
                    )));
                }
                let base = r.read_u64().map_err(MrError::from)?;
                let count = r.read_u32().map_err(MrError::from)? as usize;
                let tag = r.read_u8().map_err(MrError::from)?;
                if count == 0 {
                    return Err(malformed(format!(
                        "node {from} sent reducer {reducer} a run of no pairs"
                    )));
                }
                if !matches!(tag, ENTRY_REC | ENTRY_PACKED | ENTRY_PACKED_CSC) {
                    return Err(malformed(format!(
                        "node {from} sent reducer {reducer} a run of unknown entry tag {tag}"
                    )));
                }
                let first = locs.len();
                for k in 0..count {
                    if r.remaining() == 0 && !empty_pairs {
                        return Err(malformed(format!(
                            "node {from}'s run for reducer {reducer} claims {count} pairs, \
                             its segment ends after {k}"
                        )));
                    }
                    if locs.len() >= pairs {
                        return Err(malformed(format!(
                            "the inbox holds more than the {pairs} pair(s) its senders sent"
                        )));
                    }
                    let off = r.position();
                    // `Layout::pair`, with the key read as its prefix,
                    // written out: this loop visits every pair.
                    let (kp, entry) = match layout.key {
                        KeyAt::Pushed => {
                            (Some(prefix::from_wire(&mut r)?), layout.entry(&mut r, tag)?)
                        }
                        KeyAt::Field(field) => {
                            let entry = layout.entry(&mut r, tag)?;
                            let (ty, bytes) = entry.key(field)?;
                            let kp = prefix::from_field(&mut Reader::new(bytes), ty)?;
                            (Some(kp), entry)
                        }
                        KeyAt::Nowhere => (None, layout.entry(&mut r, tag)?),
                    };
                    let pair_len = r.position() - off;
                    scan.records_by_slot[reducer as usize / n] += entry.record_count();
                    scan.materialized_bytes += pair_len as u64;
                    let idx = locs.len();
                    if idx > IDX_MASK as usize {
                        return Err(MrError::WireOverflow {
                            field: "pair index",
                            value: idx,
                            max: IDX_MASK as u64,
                        });
                    }
                    locs.push(PairLoc::new(bi, off, tag, pair_len - entry.encoded_len())?);
                    if let (true, Some(kp)) = (job.sort_by_key, kp) {
                        scan.any_inexact |= !kp.exact;
                        // Inverting the 66-bit field reverses strict prefix
                        // order but preserves prefix equality, so tie runs
                        // are detected identically.
                        let flip = if job.descending { KEY66_MASK } else { 0 };
                        packed.push(pack_pair(reducer, kp.packed66() ^ flip, idx));
                    }
                }
                scan.all_records &= tag == ENTRY_REC;
                scan.runs.push(RunSpan {
                    reducer,
                    base,
                    first,
                    count,
                });
            }
        }
    }
    if locs.len() != pairs {
        return Err(malformed(format!(
            "the inbox holds {} pair(s), its senders sent {pairs}",
            locs.len()
        )));
    }
    Ok(scan)
}

/// The reduce order of a job that does not sort by key: its runs by
/// `(reducer, base, scan index)`, concatenated into `order` — a few dozen
/// runs compared, no pair.
fn order_runs(runs: &mut [RunSpan], order: &mut Vec<u128>) {
    runs.sort_unstable_by_key(|run| (run.reducer, run.base, run.first));
    order.clear();
    for run in runs.iter() {
        let pairs = run.first..run.first + run.count;
        order.extend(pairs.map(|idx| pack_pair(run.reducer, 0, idx)));
    }
}

/// What one reduce attempt hands back.
struct ReduceAttempt {
    outputs: Vec<(u32, Vec<Batch>)>,
    records_out: u64,
    pair_count: u64,
    hot: HotPathStats,
    /// Where the attempt's CPU went: scan, sort, reduce.
    split: [Duration; 3],
}

/// What a node's map task hands back at the barrier.
struct MapOutput {
    /// Outbox row: the message for each node, its reducers' segments.
    row: Vec<Vec<u8>>,
    /// Pairs in each buffer of `row`.
    sent: Vec<usize>,
    /// Compute of the successful attempt (what a reduce-side crash
    /// re-charges to regenerate the node's self-send).
    compute: Duration,
    records_in: u64,
    pairs: u64,
    /// The task's share of the shuffle's lower bound ([`Emit`]'s `lo`).
    shuffle_lo: u64,
    /// Per-reducer records/bytes this mapper routed, when tracing.
    skew: Option<SkewHistogram>,
}

/// What one attempt of a map-only task hands back.
struct LocalAttempt {
    outputs: Vec<(u32, Vec<Batch>)>,
    records_in: u64,
    records_out: u64,
}

/// Everything a phase worker needs besides `&Cluster`: per-phase
/// constants and the fault state pre-drawn at the phase barrier, so tasks
/// never touch `&mut Cluster`.
struct PhaseCtx<'a> {
    /// The job's name, for recovery events and errors.
    name: &'a str,
    job_idx: usize,
    phase: TaskPhase,
    n: usize,
    /// Output datasets a task writes one batch to per fragment ordinal
    /// (reduce and map-only phases).
    slots: usize,
    retry: RetryPolicy,
    /// Pre-drawn crash counts: node `i` crashes on its first `crashes[i]`
    /// attempts.
    crashes: Vec<u32>,
    /// Straggler slowdown factor per node (persistent, read up front).
    stragglers: Vec<f64>,
    /// The whole phase's OS-thread budget.
    threads: usize,
    /// Whether the cluster's trace sink wants task spans; when false
    /// the tasks skip all trace bookkeeping.
    tracing: bool,
    /// Cost model behind the trace's deterministic clock.
    cost: CostModel,
    /// Network model, for modeling recovery traffic on that clock.
    net: NetModel,
}

/// What a node task's attempts cost, the crashed ones and the one that
/// survived: accumulated on the worker, merged in node order at the
/// barrier.
#[derive(Default)]
struct Attempts {
    /// Attempts run, the surviving one included.
    count: u32,
    /// Virtual time: every attempt's scaled compute, plus backoff and
    /// what the crashes charged.
    virt: Duration,
    /// Raw (unscaled) on-CPU time across attempts, for the trace.
    cpu: Duration,
    recovery: RecoveryStats,
    events: Vec<RecoveryAction>,
}

impl Attempts {
    /// The task span's recovery counters.
    fn counters(&self) -> Counters {
        let r = &self.recovery;
        Counters {
            retries: r.tasks_retried as u64,
            crashes: r.faults_injected as u64,
            restore_bytes: r.restore_bytes,
            restore_messages: r.restore_messages,
            retransmit_bytes: r.retransmit_bytes,
            retransmit_messages: r.retransmit_messages,
            backoff_ns: duration_ns(r.backoff_time),
            ..Counters::default()
        }
    }

    /// The task's span. `work` is the `(records, pairs, bytes)` one attempt
    /// handles, which every attempt pays on the deterministic clock.
    fn span(
        &self,
        pc: &PhaseCtx<'_>,
        node: usize,
        work: (u64, u64, u64),
        counters: Counters,
    ) -> TaskTrace {
        let (records, pairs, bytes) = work;
        TaskTrace {
            node,
            virt: self.virt,
            cpu: self.cpu,
            det_ns: task_det_ns(pc, self.count, records, pairs, bytes, &counters),
            counters,
            reduce_split: [Duration::ZERO; 3],
        }
    }
}

/// One node task's result at the phase barrier.
struct TaskOutcome<T> {
    /// What the surviving attempt produced.
    out: T,
    /// What all the attempts cost.
    att: Attempts,
    /// The task's span, when tracing.
    trace: Option<TaskTrace>,
}

/// Run `task(i)` for every `i` in `0..n` on up to `threads` OS threads,
/// returning the results in index order: one pre-allocated slot per item.
///
/// The one parallel helper of the workspace: the engine's map and reduce
/// phases and the driver's load, checkpoint publish and emit all run on
/// it. The items are split into contiguous chunks, one scoped worker per
/// chunk, so slot assignment never depends on completion order and a
/// caller that folds the results in index order (first error included)
/// gets the same answer at every thread count; with one thread (or one
/// item) the tasks run inline. A worker panic propagates to the caller
/// like a sequential panic would, once every worker has finished.
pub fn run_slots<T, F>(n: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        return (0..n).map(&task).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, part) in slots.chunks_mut(chunk).enumerate() {
            let task = &task;
            s.spawn(move || {
                for (off, slot) in part.iter_mut().enumerate() {
                    *slot = Some(task(ci * chunk + off));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("a worker filled every slot"))
        .collect()
}

/// Check a task produced exactly one batch per output slot — a mismatch
/// is a task bug and must fail the task, not silently drop or misroute a
/// dataset.
fn check_slots(job: &str, batches: usize, slots: usize) -> Result<()> {
    if batches != slots {
        return Err(MrError::msg(format!(
            "job '{job}': a task produced {batches} batch(es) for {slots} output slot(s)"
        )));
    }
    Ok(())
}

impl Cluster {
    /// Run one MapReduce job under the virtual clock and return its stats.
    ///
    /// The output dataset is written fragment-per-reducer with the reducer
    /// id as ordinal; collect it with [`Cluster::collect`] to obtain the
    /// partitions in partition order.
    /// When a fault plan is installed, the run is *chaos-aware*: scheduled
    /// node crashes fire at task boundaries (the task's work is lost and
    /// the task re-executes under the retry policy, with backoff, the lost
    /// compute and the replica-restore traffic charged to the virtual
    /// clock), scheduled drop/corrupt faults hit the shuffle (detected by
    /// timeout/checksum, then retransmitted), and stragglers scale a node's
    /// measured compute time. Recovery never changes the output: recovered
    /// runs are byte-identical to fault-free ones, for every thread count.
    pub fn run_job(&mut self, job: &MapReduceJob<'_>) -> Result<JobStats> {
        self.run_job_multi(job, &[])
    }

    /// Like [`Cluster::run_job`], but the reducer writes one batch per
    /// output dataset from [`Reducer::reduce`]: slot 0 commits to
    /// `job.output` with `job.output_schema`, slot `j + 1` to
    /// `extra_outputs[j]`. Every output dataset gets one fragment per
    /// reducer (ordinal = reducer id), exactly like the primary output of
    /// a plain job.
    pub fn run_job_multi(
        &mut self,
        job: &MapReduceJob<'_>,
        extra_outputs: &[(String, Arc<Schema>)],
    ) -> Result<JobStats> {
        if job.num_reducers == 0 {
            return Err(MrError::msg(format!(
                "job '{}' has zero reducers",
                job.name
            )));
        }
        job.layout()?;
        if job.num_reducers >= 1 << REDUCER_BITS {
            return Err(MrError::WireOverflow {
                field: "reducer",
                value: job.num_reducers,
                max: (1 << REDUCER_BITS) - 1,
            });
        }
        let outputs: Vec<(String, Arc<Schema>)> =
            std::iter::once((job.output.clone(), job.output_schema.clone()))
                .chain(extra_outputs.iter().cloned())
                .collect();
        let job_idx = self.next_job_index();
        let n = self.num_nodes();
        let mut stats = JobStats {
            name: job.name.clone(),
            map_time_by_node: vec![Duration::ZERO; n],
            reduce_time_by_node: vec![Duration::ZERO; n],
            ..Default::default()
        };

        // ---- Map phase: all node tasks concurrently, each timed
        // individually, results in per-node slots. ----
        let map_pc = self.phase_ctx(&job.name, job_idx, TaskPhase::Map, outputs.len());
        let this: &Cluster = &*self;
        let map_results = run_slots(n, map_pc.threads, |node| this.map_task(&map_pc, job, node));
        let mut map_tasks: Vec<TaskTrace> = Vec::new();
        let maps = self.barrier(map_results, &mut stats.map_time_by_node, &mut map_tasks)?;

        // Successful-attempt compute per node, kept apart from retry
        // charges: a reduce-side crash re-runs the node's map task to
        // regenerate its self-send data, at this cost.
        let mut map_compute: Vec<Duration> = Vec::with_capacity(n);
        let mut outboxes: Vec<Vec<Vec<u8>>> = Vec::with_capacity(n);
        // Pairs bound for each node: its reduce task's exact sort size.
        let mut inbox_pairs = vec![0usize; n];
        let mut job_skew: Option<SkewHistogram> = None;
        for o in maps {
            map_compute.push(o.compute);
            stats.records_in += o.records_in;
            stats.pairs_shuffled += o.pairs;
            stats.shuffle_lo += o.shuffle_lo;
            for (to, sent) in o.sent.iter().enumerate() {
                inbox_pairs[to] += sent;
            }
            if let Some(s) = o.skew {
                match job_skew.as_mut() {
                    Some(merged) => merged.merge(&s),
                    None => job_skew = Some(s),
                }
            }
            outboxes.push(o.row);
        }
        // Remember the outbox sizes: the next map phase pre-sizes its
        // shuffle buffers from them instead of growing from empty.
        self.set_shuffle_hints(
            outboxes
                .iter()
                .map(|row| row.iter().map(Vec::len).collect())
                .collect(),
        );
        // Every map task has committed: inputs with no later reader leave
        // the stores now, so they are not resident through the reduce.
        for name in job.release {
            self.release(name);
        }

        // ---- Shuffle. ----
        let (inboxes, exchange) = self.exchange_with_faults(job_idx, &job.name, outboxes)?;
        stats.comm_time = exchange.comm_time(self.net());
        stats.exchange = exchange;

        // ---- Reduce phase: same slot discipline; outputs commit on the
        // driver thread at the barrier, in node order. ----
        let reduce_pc = self.phase_ctx(&job.name, job_idx, TaskPhase::Reduce, outputs.len());
        let this: &Cluster = &*self;
        let reduce_results = run_slots(n, reduce_pc.threads, |node| {
            this.reduce_task(
                &reduce_pc,
                job,
                node,
                &inboxes[node],
                inbox_pairs[node],
                map_compute[node],
            )
        });
        let mut reduce_tasks: Vec<TaskTrace> = Vec::new();
        let reduces = self.barrier(
            reduce_results,
            &mut stats.reduce_time_by_node,
            &mut reduce_tasks,
        )?;
        for (node, o) in reduces.into_iter().enumerate() {
            stats.records_out += o.records_out;
            stats.hot.merge(&o.hot);
            self.commit(node, &outputs, o.outputs)?;
        }

        // Recovery traffic (replication, restores, retransmits) joins the
        // job's modeled communication time; compute-side recovery is already
        // inside the per-node phase times.
        let recovery = self.take_recovery();
        let net = *self.net();
        stats.absorb_recovery(recovery, &net);

        if reduce_pc.tracing {
            // Emitted only now, after recovery absorption, so the
            // shuffle span's virtual time is the *final* comm time and
            // the three phases sum exactly to the job's makespan.
            let trace = job_trace(&stats, &net, map_tasks, reduce_tasks, job_skew);
            self.record_job_trace(trace);
        }
        Ok(stats)
    }

    /// Run a map-only job (paper Figure 11's split, a user-defined
    /// RecalcIndex): every node runs `task` over its local fragments of
    /// `inputs`, in (dataset, ordinal) order, and nothing is shuffled. The
    /// task returns `(ordinal, batches)` per fragment it writes, one batch
    /// per entry of `outputs`; at the barrier, in node order, batch `s`
    /// becomes fragment `ordinal` of dataset `outputs[s]` on the task's
    /// node, replicated like every materialized fragment.
    ///
    /// It is a job like [`Cluster::run_job`]: it takes one fault slot, its
    /// node tasks run under the thread budget, crash and retry under the
    /// fault plan (a crashed attempt commits nothing) and slow down on
    /// stragglers, and its trace is the barrier over its tasks, plus a
    /// shuffle span when replication or recovery moved bytes.
    pub fn run_local<F>(
        &mut self,
        name: &str,
        inputs: &[String],
        outputs: &[(String, Arc<Schema>)],
        task: F,
    ) -> Result<JobStats>
    where
        F: Fn(&TaskCtx, &[MapInput]) -> Result<Vec<(u32, Vec<Batch>)>> + Sync,
    {
        let job_idx = self.next_job_index();
        let n = self.num_nodes();
        let pc = self.phase_ctx(name, job_idx, TaskPhase::Map, outputs.len());
        let this: &Cluster = &*self;
        let results = run_slots(n, pc.threads, |node| {
            this.local_task(&pc, inputs, node, &task)
        });
        let mut stats = JobStats {
            name: name.to_string(),
            map_time_by_node: vec![Duration::ZERO; n],
            reduce_time_by_node: vec![Duration::ZERO; n],
            ..Default::default()
        };
        let mut tasks: Vec<TaskTrace> = Vec::new();
        let locals = self.barrier(results, &mut stats.map_time_by_node, &mut tasks)?;
        for (node, o) in locals.into_iter().enumerate() {
            stats.records_in += o.records_in;
            stats.records_out += o.records_out;
            self.commit(node, outputs, o.outputs)?;
        }
        let recovery = self.take_recovery();
        let net = *self.net();
        stats.absorb_recovery(recovery, &net);
        if pc.tracing {
            self.record_job_trace(local_trace(&stats, &net, tasks));
        }
        Ok(stats)
    }

    /// The context of phase `phase` of job `job_idx`, whose tasks write
    /// `slots` outputs: its crashes are drawn from the fault plan now, at
    /// the barrier.
    fn phase_ctx<'a>(
        &mut self,
        name: &'a str,
        job_idx: usize,
        phase: TaskPhase,
        slots: usize,
    ) -> PhaseCtx<'a> {
        let n = self.num_nodes();
        PhaseCtx {
            name,
            job_idx,
            phase,
            n,
            slots,
            retry: self.retry_policy(),
            crashes: self.take_phase_crashes(job_idx, phase),
            stragglers: (0..n).map(|i| self.straggler_factor(i)).collect(),
            threads: self.threads(),
            tracing: self.tracing(),
            cost: self.cost_model(),
            net: *self.net(),
        }
    }

    /// A phase barrier: fold the node tasks' outcomes in node order —
    /// each node's virtual time into `times`, its recovery into the
    /// cluster's, its span into `spans` — and hand back what they produced.
    /// The first failed node, in node order, fails the phase.
    fn barrier<T>(
        &mut self,
        results: Vec<Result<TaskOutcome<T>>>,
        times: &mut [Duration],
        spans: &mut Vec<TaskTrace>,
    ) -> Result<Vec<T>> {
        let mut outs = Vec::with_capacity(results.len());
        for (node, res) in results.into_iter().enumerate() {
            let o = res?;
            times[node] += o.att.virt;
            self.absorb_worker_recovery(o.att.recovery, o.att.events);
            spans.extend(o.trace);
            outs.push(o.out);
        }
        Ok(outs)
    }

    /// Commit a node's output fragments: batch `s` of each `(ordinal,
    /// batches)` becomes fragment `ordinal` of `outputs[s]`.
    fn commit(
        &mut self,
        node: usize,
        outputs: &[(String, Arc<Schema>)],
        fragments: Vec<(u32, Vec<Batch>)>,
    ) -> Result<()> {
        for (ordinal, batches) in fragments {
            for ((name, schema), batch) in outputs.iter().zip(batches) {
                self.put_fragment(node, name, ordinal, Dataset::new(schema.clone(), batch))?;
            }
        }
        Ok(())
    }

    /// Run one node task's attempts — the engine's one attempt loop, under
    /// map, reduce and map-only tasks alike. Each attempt is timed and its
    /// compute, scaled by the node's straggler factor, charged to `att`.
    /// The node's first `pc.crashes[node]` attempts crash before they
    /// commit: the fault and the replica restore are accounted (see
    /// [`Cluster::simulate_crash`]), the attempt's compute is lost,
    /// `on_crash` charges whatever else the crash costs the task, and the
    /// task retries after its backoff — or aborts once the retry policy is
    /// spent. Returns the surviving attempt's result and scaled compute.
    fn attempt_loop<T>(
        &self,
        pc: &PhaseCtx<'_>,
        node: usize,
        att: &mut Attempts,
        mut attempt: impl FnMut() -> Result<T>,
        mut on_crash: impl FnMut(&mut Attempts),
    ) -> Result<(T, Duration)> {
        loop {
            let t0 = TaskTimer::start();
            let out = attempt()?;
            let raw = t0.elapsed();
            att.count += 1;
            att.cpu += raw;
            let elapsed = scale_compute(raw, pc.stragglers[node]);
            att.virt += elapsed;
            if att.count > pc.crashes[node] {
                return Ok((out, elapsed));
            }
            // The node died before committing: the attempt's compute is
            // lost (charged above, and counted as re-execution overhead).
            self.simulate_crash(pc, node, att)?;
            att.recovery.reexec_task_time += elapsed;
            on_crash(att);
            if att.count >= pc.retry.max_attempts {
                return Err(MrError::TaskAborted {
                    job: pc.name.to_string(),
                    node,
                    phase: pc.phase,
                    attempts: att.count,
                    source: Box::new(MrError::RetriesExhausted {
                        attempts: att.count,
                        stats: Box::new(att.recovery.clone()),
                    }),
                });
            }
            let backoff = pc.retry.backoff_for(att.count);
            att.virt += backoff;
            att.recovery.tasks_retried += 1;
            att.recovery.backoff_time += backoff;
            att.events.push(RecoveryAction::TaskRetried {
                job: pc.name.to_string(),
                node,
                phase: pc.phase,
                attempt: att.count + 1,
                backoff,
            });
        }
    }

    /// Node `node`'s fragments of `names`, in (dataset, ordinal) order,
    /// and the records they hold.
    fn local_inputs(&self, names: &[String], node: usize) -> (Vec<MapInput>, u64) {
        let mut inputs: Vec<MapInput> = Vec::new();
        let mut records: u64 = 0;
        for name in names {
            for f in self.node(node).get(name).into_iter().flatten() {
                records += f.data.batch.record_count() as u64;
                inputs.push(MapInput {
                    name: name.clone(),
                    ordinal: f.ordinal,
                    data: Arc::clone(&f.data),
                });
            }
        }
        (inputs, records)
    }

    /// One node's map task: read local fragments, map, partition and encode
    /// into per-reducer segments, then seal the segments into the outbox
    /// row. Runs on a worker thread with only `&self`.
    fn map_task(
        &self,
        pc: &PhaseCtx<'_>,
        job: &MapReduceJob<'_>,
        node: usize,
    ) -> Result<TaskOutcome<MapOutput>> {
        let n = pc.n;
        // The previous job's message to a node, split evenly over the
        // reducers that node owns, pre-sizes each segment.
        let hints = self.shuffle_hints().get(node);
        let mut segs: Vec<Vec<u8>> = (0..job.num_reducers)
            .map(|r| {
                let to = r % n;
                let owned = (job.num_reducers - to).div_ceil(n);
                Vec::with_capacity(hints.and_then(|h| h.get(to)).map_or(0, |&b| b / owned))
            })
            .collect();
        let mut sent = vec![0; n];
        let mut skew = pc.tracing.then(|| SkewHistogram::new(job.num_reducers));
        let mut att = Attempts::default();
        let attempt = || {
            // Retries reuse the segment buffers (cleared, capacity kept).
            for seg in &mut segs {
                seg.clear();
            }
            sent.fill(0);
            if let Some(sk) = skew.as_mut() {
                sk.reset();
            }
            let (inputs, records_in) = self.local_inputs(&job.inputs, node);
            let ctx = TaskCtx {
                node,
                num_nodes: n,
                num_reducers: job.num_reducers,
                reducer: None,
            };
            let mut emit = Emit::new(job, node, &mut segs, &mut sent, skew.as_mut());
            job.mapper.map(&ctx, &inputs, &mut emit)?;
            Ok((records_in, emit.finish()?))
        };
        let ((records_in, emitted), compute) =
            self.attempt_loop(pc, node, &mut att, attempt, |_| {})?;
        let row = seal_segments(&mut segs, n)?;
        let pairs = emitted.pairs as u64;
        let trace = pc.tracing.then(|| {
            let encoded: u64 = row.iter().map(|b| b.len() as u64).sum();
            let counters = Counters {
                records_in,
                pairs,
                ..att.counters()
            };
            att.span(pc, node, (records_in, pairs, encoded), counters)
        });
        let out = MapOutput {
            row,
            sent,
            compute,
            records_in,
            pairs,
            shuffle_lo: emitted.lo,
            skew,
        };
        Ok(TaskOutcome { out, att, trace })
    }

    /// One node's reduce task: decode its inbox (`pairs` pairs, as the
    /// map tasks counted them), sort, reduce per owned reducer id. Runs on
    /// a worker thread with only `&self`; outputs are committed by the
    /// driver.
    fn reduce_task(
        &self,
        pc: &PhaseCtx<'_>,
        job: &MapReduceJob<'_>,
        node: usize,
        inbox: &[(usize, Vec<u8>)],
        pairs: usize,
        map_compute: Duration,
    ) -> Result<TaskOutcome<ReduceAttempt>> {
        // The exchange builds inboxes sender-ascending; the scan index
        // stands in for `(mapper, emission index)` only because of that.
        debug_assert!(inbox.windows(2).all(|w| w[0].0 < w[1].0));
        // Sort buffers survive retry attempts (cleared, capacity kept) and
        // are pre-sized to the pair count the senders' map tasks counted,
        // so the first attempt never grows from empty.
        let mut locs: Vec<PairLoc> = Vec::with_capacity(pairs);
        let mut packed: Vec<u128> = Vec::with_capacity(pairs);
        let mut att = Attempts::default();
        // Outputs are buffered and only committed if the task survives
        // its boundary — a crashed attempt leaves nothing.
        let attempt = || reduce_attempt(pc, job, node, inbox, pairs, &mut locs, &mut packed);
        // Crash mid-shuffle: the reduce attempt's work and the node's
        // in-memory inbox are gone. Remote mappers held their send buffers
        // and retransmit them; the node's own map output is regenerated by
        // re-running its map task (same deterministic bytes, so the retry
        // reuses `inbox` while the clock pays for the re-fetch).
        let on_crash = |att: &mut Attempts| {
            let (rbytes, rmsgs) = inbox
                .iter()
                .filter(|(from, _)| *from != node)
                .fold((0u64, 0u64), |(b, m), (_, buf)| {
                    (b + buf.len() as u64, m + 1)
                });
            if rmsgs > 0 {
                att.recovery.retransmit_bytes += rbytes;
                att.recovery.retransmit_messages += rmsgs;
                att.events.push(RecoveryAction::InboxRefetched {
                    job: pc.name.to_string(),
                    node,
                    bytes: rbytes,
                    messages: rmsgs,
                });
            }
            if inbox.iter().any(|(from, _)| *from == node) {
                // Re-running the local map task costs its compute.
                att.virt += map_compute;
                att.recovery.reexec_task_time += map_compute;
            }
        };
        let (out, _) = self.attempt_loop(pc, node, &mut att, attempt, on_crash)?;
        let trace = pc.tracing.then(|| {
            let inbox_bytes: u64 = inbox.iter().map(|(_, b)| b.len() as u64).sum();
            let counters = Counters {
                records_out: out.records_out,
                pairs: out.pair_count,
                staged_bytes: out.hot.staged_bytes,
                staged_allocs: out.hot.staged_allocs,
                materialized_bytes: out.hot.materialized_bytes,
                tie_pairs: out.hot.tie_pairs,
                ..att.counters()
            };
            let work = (out.records_out, out.pair_count, inbox_bytes);
            TaskTrace {
                reduce_split: out.split,
                ..att.span(pc, node, work, counters)
            }
        });
        Ok(TaskOutcome { out, att, trace })
    }

    /// One node's map-only task: `task` over the node's local fragments,
    /// its batches buffered until the barrier commits them. Runs on a
    /// worker thread with only `&self`.
    fn local_task<F>(
        &self,
        pc: &PhaseCtx<'_>,
        inputs: &[String],
        node: usize,
        task: &F,
    ) -> Result<TaskOutcome<LocalAttempt>>
    where
        F: Fn(&TaskCtx, &[MapInput]) -> Result<Vec<(u32, Vec<Batch>)>> + Sync,
    {
        let ctx = TaskCtx {
            node,
            num_nodes: pc.n,
            num_reducers: 0,
            reducer: None,
        };
        let mut att = Attempts::default();
        let attempt = || {
            let (fragments, records_in) = self.local_inputs(inputs, node);
            let outputs = task(&ctx, &fragments)?;
            let mut records_out = 0;
            for (_, batches) in &outputs {
                check_slots(pc.name, batches.len(), pc.slots)?;
                records_out += batches.iter().map(|b| b.record_count() as u64).sum::<u64>();
            }
            Ok(LocalAttempt {
                outputs,
                records_in,
                records_out,
            })
        };
        let (out, _) = self.attempt_loop(pc, node, &mut att, attempt, |_| {})?;
        let trace = pc.tracing.then(|| {
            let counters = Counters {
                records_in: out.records_in,
                records_out: out.records_out,
                ..att.counters()
            };
            att.span(pc, node, (out.records_in, 0, 0), counters)
        });
        Ok(TaskOutcome { out, att, trace })
    }

    /// Simulate a node crash at a task boundary without mutating a store:
    /// account the fault and the replica restore into the task's
    /// attempts, or fail with [`MrError::DataLoss`] when a fragment is
    /// unrecoverable (see [`Cluster::plan_crash_restore`]). Every crash of
    /// a phase restores the store the phase began with.
    fn simulate_crash(&self, pc: &PhaseCtx<'_>, node: usize, att: &mut Attempts) -> Result<()> {
        att.recovery.faults_injected += 1;
        att.events.push(RecoveryAction::FaultInjected {
            job: pc.name.to_string(),
            fault: Fault::NodeCrash {
                node,
                job: pc.job_idx,
                phase: pc.phase,
            },
        });
        let (fragments, bytes) = self.plan_crash_restore(node)?;
        att.recovery.restore_bytes += bytes;
        att.recovery.restore_messages += fragments as u64;
        att.events.push(RecoveryAction::FragmentsRestored {
            job: pc.name.to_string(),
            node,
            fragments,
            bytes,
        });
        Ok(())
    }
}

/// One reduce attempt: scan the inbox (`pairs` pairs, as its senders
/// counted them) once into a 16-byte location index plus packed
/// 128-bit sort keys, sort *those* and fix up inexact prefix ties — or,
/// without key order, order the runs — then hand each reducer its span
/// of the order as a borrowed [`Pairs`], from which it decodes each
/// pair exactly once, straight into its output.
fn reduce_attempt(
    pc: &PhaseCtx<'_>,
    job: &MapReduceJob<'_>,
    node: usize,
    inbox: &[(usize, Vec<u8>)],
    pairs: usize,
    locs: &mut Vec<PairLoc>,
    packed: &mut Vec<u128>,
) -> Result<ReduceAttempt> {
    let n = pc.n;
    let layout = job.layout()?;
    let timer = TaskTimer::start();
    let Scan {
        records_by_slot,
        any_inexact,
        all_records,
        materialized_bytes,
        mut runs,
    } = scan_inbox(job, node, n, inbox, pairs, locs, packed)?;
    let scanned = timer.elapsed();
    let mut hot = HotPathStats {
        materialized_bytes,
        ..HotPathStats::default()
    };
    // What ordering moves: one PairLoc + one packed key per pair.
    hot.staged_bytes =
        (locs.len() * (std::mem::size_of::<PairLoc>() + std::mem::size_of::<u128>())) as u64;
    if !job.sort_by_key {
        order_runs(&mut runs, packed);
    } else {
        // Threads left over beyond one per node parallelize this
        // node's sort — the node's core budget, like papar-sort's
        // contract wants.
        papar_sort::packed::par_sort_packed(packed, (pc.threads / n).max(1));
        fixup_prefix_ties(
            layout,
            job.descending,
            any_inexact,
            inbox,
            locs,
            packed,
            &mut hot,
        )?;
    }
    let sorted = timer.elapsed();
    // Hand every owned reducer its span of the sorted order. With
    // sorted keys, no inexact prefix and one record per pair, the
    // packed keys alone cut the key-equal runs.
    let runs_from_keys = job.sort_by_key && !any_inexact && all_records;
    let reduce = |rid: usize, pairs: Pairs<'_>| {
        let ctx = TaskCtx {
            node,
            num_nodes: n,
            num_reducers: job.num_reducers,
            reducer: Some(rid),
        };
        let batches = job.reducer.reduce(&ctx, pairs)?;
        check_slots(&job.name, batches.len(), pc.slots)?;
        Ok::<_, MrError>(batches)
    };
    let mut outputs: Vec<(u32, Vec<Batch>)> = Vec::new();
    let mut records_out: u64 = 0;
    let mut handled: Vec<bool> = vec![false; job.num_reducers];
    let mut i = 0usize;
    while i < packed.len() {
        let rid = (packed[i] >> (66 + IDX_BITS)) as usize;
        let mut j = i + 1;
        while j < packed.len() && (packed[j] >> (66 + IDX_BITS)) as usize == rid {
            j += 1;
        }
        let pairs = Pairs::new(
            inbox,
            locs,
            &packed[i..j],
            layout,
            records_by_slot[rid / n],
            runs_from_keys,
        );
        let batches = reduce(rid, pairs)?;
        records_out += batches.iter().map(|b| b.record_count() as u64).sum::<u64>();
        handled[rid] = true;
        outputs.push((rid as u32, batches));
        i = j;
    }
    // Reducers that received nothing still own an (empty) output
    // fragment, so a distribute job always materializes every partition.
    for rid in (node..job.num_reducers).step_by(n) {
        if !handled[rid] {
            let pairs = Pairs::empty(layout);
            outputs.push((rid as u32, reduce(rid, pairs)?));
        }
    }
    let split = [scanned, sorted - scanned, timer.elapsed() - sorted];
    Ok(ReduceAttempt {
        outputs,
        records_out,
        pair_count: locs.len() as u64,
        hot,
        split,
    })
}

/// Apply a straggler's slowdown to a measured compute time.
fn scale_compute(elapsed: Duration, factor: f64) -> Duration {
    if factor > 1.0 {
        elapsed.mul_f64(factor)
    } else {
        elapsed
    }
}

/// A task's duration on the trace's deterministic clock: every executed
/// attempt pays the modeled compute for the task's work counters, plus
/// the (deterministic) backoff waits and the modeled time of the task's
/// replica-restore and retransmission traffic.
fn task_det_ns(
    pc: &PhaseCtx<'_>,
    attempts: u32,
    records: u64,
    pairs: u64,
    bytes: u64,
    c: &Counters,
) -> u64 {
    u64::from(attempts)
        .saturating_mul(pc.cost.compute_ns(records, pairs, bytes))
        .saturating_add(c.backoff_ns)
        .saturating_add(duration_ns(
            pc.net.transfer_time(c.restore_messages, c.restore_bytes),
        ))
        .saturating_add(duration_ns(
            pc.net
                .transfer_time(c.retransmit_messages, c.retransmit_bytes),
        ))
}

/// Assemble a finished engine job's trace. The map/reduce phases close
/// over their per-node task spans (barrier semantics: slowest task's
/// time); the shuffle phase carries the exchange volume plus the
/// *exchange-level* share of the job's recovery traffic — the job total
/// minus what the reduce tasks already booked as inbox re-fetches, so
/// counters sum without double-counting up the span tree.
fn job_trace(
    stats: &JobStats,
    net: &NetModel,
    map_tasks: Vec<TaskTrace>,
    reduce_tasks: Vec<TaskTrace>,
    skew: Option<SkewHistogram>,
) -> JobTrace {
    let rec = &stats.recovery;
    let task_retrans_bytes: u64 = reduce_tasks
        .iter()
        .map(|t| t.counters.retransmit_bytes)
        .sum();
    let task_retrans_msgs: u64 = reduce_tasks
        .iter()
        .map(|t| t.counters.retransmit_messages)
        .sum();
    let ex_retrans_bytes = rec.retransmit_bytes.saturating_sub(task_retrans_bytes);
    let ex_retrans_msgs = rec.retransmit_messages.saturating_sub(task_retrans_msgs);
    let counters = Counters {
        shuffle_bytes: stats.exchange.remote_bytes,
        shuffle_lo: stats.shuffle_lo,
        messages: stats.exchange.remote_messages,
        frames_checksummed: stats.exchange.remote_messages + rec.retransmit_messages,
        retransmit_bytes: ex_retrans_bytes,
        retransmit_messages: ex_retrans_msgs,
        replication_bytes: rec.replication_bytes,
        ..Counters::default()
    };
    let det = duration_ns(stats.exchange.comm_time(net))
        .saturating_add(duration_ns(
            net.transfer_time(ex_retrans_msgs, ex_retrans_bytes),
        ))
        .saturating_add(duration_ns(
            net.transfer_time(rec.replication_messages, rec.replication_bytes),
        ));
    JobTrace {
        name: stats.name.clone(),
        phases: vec![
            PhaseTrace::barrier(PhaseKind::Map, map_tasks),
            PhaseTrace::solo(PhaseKind::Shuffle, stats.comm_time, det, counters),
            PhaseTrace::barrier(PhaseKind::Reduce, reduce_tasks),
        ],
        skew,
        covers: Vec::new(),
    }
}

/// A map-only job's trace: the barrier over its node tasks, plus a
/// shuffle span when replication or recovery moved bytes (the
/// replication counted on it; restores sit on the tasks that crashed).
fn local_trace(stats: &JobStats, net: &NetModel, tasks: Vec<TaskTrace>) -> JobTrace {
    let mut phases = vec![PhaseTrace::barrier(PhaseKind::Map, tasks)];
    let rec = &stats.recovery;
    if stats.comm_time > Duration::ZERO || rec.replication_bytes > 0 {
        let counters = Counters {
            replication_bytes: rec.replication_bytes,
            messages: rec.replication_messages,
            ..Counters::default()
        };
        let det_ns =
            duration_ns(net.transfer_time(rec.replication_messages, rec.replication_bytes));
        phases.push(PhaseTrace::solo(
            PhaseKind::Shuffle,
            stats.comm_time,
            det_ns,
            counters,
        ));
    }
    JobTrace {
        name: stats.name.clone(),
        phases,
        skew: None,
        covers: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::input::FieldType;
    use papar_record::batch::Rows;
    use proptest::prelude::*;

    /// Nodes of the cluster every test message crosses.
    const NODES: usize = 3;
    /// Reducers of every test job: node 0 owns reducers 0 and 3.
    const REDUCERS: usize = 5;

    /// A mapper that only declares where its keys are: the tests push for
    /// it.
    struct Declares(PairKey);

    impl Mapper for Declares {
        fn map(&self, _: &TaskCtx, _: &[MapInput], _: &mut Emit<'_>) -> Result<()> {
            Ok(())
        }

        fn key(&self) -> PairKey {
            self.0
        }
    }

    /// A reducer that produces nothing.
    struct NoReduce;

    impl Reducer for NoReduce {
        fn reduce(&self, _: &TaskCtx, _: Pairs<'_>) -> Result<Vec<Batch>> {
            Ok(Vec::new())
        }
    }

    /// A 5-reducer job over entries of `schema`; a keyless one does not
    /// sort by key.
    fn test_job<'a>(
        mapper: &'a dyn Mapper,
        partitioner: &'a dyn Partitioner,
        schema: Arc<Schema>,
    ) -> MapReduceJob<'a> {
        MapReduceJob {
            name: "scan".into(),
            inputs: Vec::new(),
            output: "out".into(),
            num_reducers: REDUCERS,
            map_output_schema: schema.clone(),
            output_schema: schema,
            mapper,
            partitioner,
            reducer: &NoReduce,
            sort_by_key: mapper.key() != PairKey::None,
            descending: false,
            compress_key: None,
            release: &[],
        }
    }

    /// The outbox row node 1 of the cluster leaves after `push` pushed its
    /// pairs for a job keyed `keys` over entries of `schema`, and the pairs
    /// it counted per node.
    fn emit_all(
        keys: PairKey,
        partitioner: &dyn Partitioner,
        schema: Arc<Schema>,
        push: impl FnOnce(&mut Emit<'_>) -> Result<()>,
    ) -> Result<(Vec<Vec<u8>>, Vec<usize>)> {
        let mapper = Declares(keys);
        let job = test_job(&mapper, partitioner, schema);
        let mut segs = vec![Vec::new(); REDUCERS];
        let mut sent = vec![0; NODES];
        let mut emit = Emit::new(&job, 1, &mut segs, &mut sent, None);
        push(&mut emit)?;
        emit.finish()?;
        Ok((seal_segments(&mut segs, NODES)?, sent))
    }

    /// Push every `(key, entry)` pair with its key.
    fn push_keyed<'e>(
        mut pairs: impl Iterator<Item = (Value, EntryRef<'e>)>,
    ) -> impl FnOnce(&mut Emit<'_>) -> Result<()> {
        move |emit| pairs.try_for_each(|(key, entry)| emit.push(&key, entry))
    }

    /// The outbox row after hashing `entries` over the reducers: two of the
    /// three nodes get a message of two segments.
    fn emitted<'e>(
        schema: Arc<Schema>,
        entries: impl Iterator<Item = EntryRef<'e>>,
    ) -> std::result::Result<Vec<Vec<u8>>, TestCaseError> {
        let keyed = (0..).map(|i: i64| Value::Long(i * 7919)).zip(entries);
        emit_all(PairKey::Pushed, &HashPartitioner, schema, push_keyed(keyed))
            .map(|e| e.0)
            .map_err(|e| TestCaseError::fail(e.to_string()))
    }

    const TYPES: [FieldType; 3] = [FieldType::Integer, FieldType::Long, FieldType::Double];

    proptest! {
        /// A row emits exactly the bytes its decoded record does: under its
        /// own schema, under an equal schema behind another pointer, and
        /// under a renamed schema of the same types.
        #[test]
        fn rows_and_records_emit_the_same_outbox_bytes(
            types in prop::collection::vec(0usize..3, 1..7),
            cells in prop::collection::vec((any::<i32>(), any::<i64>(), any::<f64>()), 0..24),
        ) {
            let fields: Vec<_> = (types.iter().enumerate())
                .map(|(i, &t)| (format!("f{i}"), TYPES[t]))
                .collect();
            let schema = Arc::new(Schema::new(fields.clone()));
            let records: Vec<Record> = cells
                .iter()
                .map(|&(a, b, c)| {
                    Record::new(
                        (types.iter())
                            .map(|&t| match TYPES[t] {
                                FieldType::Integer => Value::Int(a),
                                FieldType::Long => Value::Long(b),
                                _ => Value::Double(c),
                            })
                            .collect(),
                    )
                })
                .collect();
            let mut bytes = Vec::new();
            for r in &records {
                wire::encode_record(r, &schema, &mut bytes).unwrap();
            }
            let rows = Batch::Rows(Rows::new(schema.clone(), bytes).unwrap());
            let flat = Batch::Flat(records);
            let want = emitted(schema.clone(), EntryRef::all(&flat))?;
            prop_assert_eq!(emitted(schema, EntryRef::all(&rows))?, want.clone());
            let equal = Arc::new(Schema::new(fields.clone()));
            prop_assert_eq!(emitted(equal, EntryRef::all(&rows))?, want);
            let renamed = Arc::new(Schema::new(
                (fields.into_iter())
                    .map(|(name, ty)| (format!("{name}_"), ty))
                    .collect(),
            ));
            prop_assert_eq!(
                emitted(renamed.clone(), EntryRef::all(&rows))?,
                emitted(renamed, EntryRef::all(&flat))?
            );
        }
    }

    /// Records of one `Int`.
    fn int_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![("k", FieldType::Integer)]))
    }

    /// Records of an `Int` and a 6-byte `Str` key, keyed by the string.
    fn str_keyed_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            ("n", FieldType::Integer),
            ("k", FieldType::Str),
        ]))
    }

    /// The inboxes the scan tests read and damage: node 0's message from
    /// node 1, for a job of each way a pair may carry its key.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// 15 `Int` records, each pushed with a `Long` key that names its
        /// reducer: three pairs for each reducer, one run per segment.
        TaggedKeys,
        /// 15 records keyed by their `Str` field and hashed.
        StrKeyField,
        /// 15 `Int` records pushed with no key to reducer `i % 5`, in two
        /// fragments based at 0 and 100: two runs per segment.
        Keyless,
        /// A flat fragment and a packed one (hybrid's two-input
        /// distribute), pushed with no key: a record run and a group run
        /// per segment.
        KeylessMixed,
    }

    const SHAPES: [Shape; 4] = [
        Shape::TaggedKeys,
        Shape::StrKeyField,
        Shape::Keyless,
        Shape::KeylessMixed,
    ];

    impl Shape {
        fn keys(self) -> PairKey {
            match self {
                Shape::TaggedKeys => PairKey::Pushed,
                Shape::StrKeyField => PairKey::Field(1),
                Shape::Keyless | Shape::KeylessMixed => PairKey::None,
            }
        }

        fn schema(self) -> Arc<Schema> {
            match self {
                Shape::TaggedKeys | Shape::Keyless => int_schema(),
                Shape::StrKeyField | Shape::KeylessMixed => str_keyed_schema(),
            }
        }

        fn partitioner(self) -> &'static dyn Partitioner {
            match self {
                Shape::StrKeyField => &HashPartitioner,
                _ => &IdentityPartitioner,
            }
        }

        /// Node 0's message and the pairs node 1 counted for it.
        fn message(self) -> Result<(Vec<u8>, usize)> {
            let ints: Vec<Record> = (0..15).map(|i| Record::new(vec![Value::Int(i)])).collect();
            let strs: Vec<Record> = (0..15)
                .map(|i| Record::new(vec![Value::Int(i), Value::from(format!("key-{i:02}"))]))
                .collect();
            let groups: Vec<PackedRecord> = (0..10)
                .map(|g| PackedRecord {
                    key: Value::from(format!("grp-{g:02}")),
                    members: papar_record::Rows::from_records(str_keyed_schema(), &strs[g..g + 2])
                        .unwrap(),
                })
                .collect();
            let (mut row, sent) = emit_all(
                self.keys(),
                self.partitioner(),
                self.schema(),
                |emit| match self {
                    Shape::TaggedKeys => {
                        let keys = (0..).map(|i: i64| Value::Long(i % 5));
                        push_keyed(keys.zip(ints.iter().map(EntryRef::Rec)))(emit)
                    }
                    Shape::StrKeyField => {
                        (strs.iter()).try_for_each(|r| emit.push_entry(EntryRef::Rec(r)))
                    }
                    Shape::Keyless => {
                        for (i, r) in ints.iter().enumerate() {
                            if i % 8 == 0 {
                                emit.set_base(100 * (i / 8) as u64);
                            }
                            emit.push_to(i % 5, EntryRef::Rec(r))?;
                        }
                        Ok(())
                    }
                    Shape::KeylessMixed => {
                        for (i, r) in strs.iter().enumerate() {
                            emit.push_to(i % 5, EntryRef::Rec(r))?;
                        }
                        emit.set_base(15);
                        for (g, group) in groups.iter().enumerate() {
                            emit.push_to(g % 5, EntryRef::Packed(group))?;
                        }
                        Ok(())
                    }
                },
            )?;
            Ok((row.swap_remove(0), sent[0]))
        }

        /// Scan `msg` as node 0's whole inbox, sent by node 1.
        fn scan(self, msg: &[u8], pairs: usize) -> Result<Scan> {
            let mapper = Declares(self.keys());
            let job = test_job(&mapper, self.partitioner(), self.schema());
            let inbox = [(1, msg.to_vec())];
            scan_inbox(
                &job,
                0,
                NODES,
                &inbox,
                pairs,
                &mut Vec::new(),
                &mut Vec::new(),
            )
        }

        /// Where each run header of the first segment of `msg` starts.
        fn first_segment_runs(self, msg: &[u8]) -> Result<Vec<usize>> {
            let mapper = Declares(self.keys());
            let job = test_job(&mapper, self.partitioner(), self.schema());
            let layout = job.layout()?;
            let mut r = Reader::new(&msg[..SEGMENT_HEADER + segment_len(msg, 0)]);
            r.read_bytes(SEGMENT_HEADER)?;
            let mut runs = Vec::new();
            while r.remaining() > 0 {
                runs.push(r.position());
                r.read_u64()?;
                let count = r.read_u32()?;
                let tag = r.read_u8()?;
                for _ in 0..count {
                    if let KeyAt::Pushed = layout.key {
                        wire::skip_value(&mut r)?;
                    }
                    layout.entry(&mut r, tag)?;
                }
            }
            Ok(runs)
        }
    }

    /// The byte length in the header of the segment starting at `at`.
    fn segment_len(msg: &[u8], at: usize) -> usize {
        u32::from_le_bytes([msg[at + 4], msg[at + 5], msg[at + 6], msg[at + 7]]) as usize
    }

    /// The pair count in the header of the run starting at `at`.
    fn run_count(msg: &[u8], at: usize) -> u32 {
        u32::from_le_bytes([msg[at + 8], msg[at + 9], msg[at + 10], msg[at + 11]])
    }

    #[test]
    fn segments_frame_each_reducers_pairs_once() -> Result<()> {
        let (msg, pairs) = Shape::TaggedKeys.message()?;
        // Two segments, each a header, a run header and three 13-byte
        // pairs: a 9-byte tagged `Long` key and a 4-byte record.
        assert_eq!(pairs, 6);
        assert_eq!(&msg[..4], &0u32.to_le_bytes());
        let first = segment_len(&msg, 0);
        assert_eq!(first, RUN_HEADER + 3 * 13);
        assert_eq!(run_count(&msg, SEGMENT_HEADER), 3);
        assert_eq!(msg[SEGMENT_HEADER + 12], ENTRY_REC);
        assert_eq!(&msg[8 + first..12 + first], &3u32.to_le_bytes());
        assert_eq!(msg.len(), 2 * SEGMENT_HEADER + 2 * first);
        let scan = Shape::TaggedKeys.scan(&msg, pairs)?;
        assert_eq!(scan.records_by_slot, vec![3, 3]);
        assert_eq!(scan.runs.len(), 2);
        assert_eq!(
            scan.materialized_bytes as usize,
            msg.len() - 2 * (SEGMENT_HEADER + RUN_HEADER)
        );
        Ok(())
    }

    /// A `Str`-keyed pair: the `Int` and the 6-byte string with its length.
    const STR_KEYED_PAIR: usize = 4 + 4 + 6;

    #[test]
    fn a_field_keyed_pair_is_its_entry() -> Result<()> {
        let (msg, pairs) = Shape::StrKeyField.message()?;
        assert!(pairs > 0, "node 0 owns some of the hashed keys");
        let mut segments = 0;
        let mut at = 0;
        while at < msg.len() {
            let len = segment_len(&msg, at);
            assert_eq!(
                (len - RUN_HEADER) % STR_KEYED_PAIR,
                0,
                "one run of whole entries, no keys"
            );
            segments += 1;
            at += SEGMENT_HEADER + len;
        }
        assert_eq!(
            msg.len(),
            segments * (SEGMENT_HEADER + RUN_HEADER) + pairs * STR_KEYED_PAIR
        );
        let scan = Shape::StrKeyField.scan(&msg, pairs)?;
        assert_eq!(scan.records_by_slot.iter().sum::<usize>(), pairs);
        assert_eq!(scan.materialized_bytes as usize, pairs * STR_KEYED_PAIR);
        // Each mapper pushes only the way its keys are declared: no key
        // can disagree with its entry, and a keyless job builds none.
        let record = Record::new(vec![Value::Int(0), Value::from("key-00")]);
        let entry = EntryRef::Rec(&record);
        let all = [PairKey::Pushed, PairKey::Field(1), PairKey::None];
        for (keys, fits) in all.iter().flat_map(|&k| all.map(|f| (k, f))) {
            let pushed = emit_all(
                keys,
                &HashPartitioner,
                str_keyed_schema(),
                |emit| match fits {
                    PairKey::Pushed => emit.push(&Value::from("key-00"), entry),
                    PairKey::Field(_) => emit.push_entry(entry),
                    PairKey::None => emit.push_to(0, entry),
                },
            );
            if fits == keys {
                assert!(pushed.is_ok(), "{keys:?}");
            } else {
                assert!(
                    matches!(pushed, Err(MrError::Msg(_))),
                    "{keys:?} / {fits:?}"
                );
            }
        }
        Ok(())
    }

    /// A keyless message opens a run per fragment base and per entry tag in
    /// each segment, and carries no key: its pairs are their entries.
    #[test]
    fn keyless_runs_break_at_each_base_and_tag() -> Result<()> {
        for shape in [Shape::Keyless, Shape::KeylessMixed] {
            let (msg, pairs) = shape.message()?;
            let scan = shape.scan(&msg, pairs)?;
            let bases: Vec<(u32, u64)> = scan.runs.iter().map(|r| (r.reducer, r.base)).collect();
            let want = match shape {
                Shape::Keyless => vec![(0, 0), (0, 100), (3, 0), (3, 100)],
                _ => vec![(0, 0), (0, 15), (3, 0), (3, 15)],
            };
            assert_eq!(bases, want, "{shape:?}");
            let headers = 2 * SEGMENT_HEADER + 4 * RUN_HEADER;
            assert_eq!(scan.materialized_bytes as usize, msg.len() - headers);
            assert_eq!(scan.all_records, matches!(shape, Shape::Keyless));
        }
        Ok(())
    }

    #[test]
    fn a_damaged_inbox_is_a_typed_error() -> Result<()> {
        let (msg, pairs) = Shape::TaggedKeys.message()?;
        let with_header = |reducer: u32, len: u32| {
            let mut m = msg.clone();
            m[..4].copy_from_slice(&reducer.to_le_bytes());
            m[4..8].copy_from_slice(&len.to_le_bytes());
            m
        };
        let scan_message = |m: &[u8]| Shape::TaggedKeys.scan(m, pairs);
        let first = segment_len(&msg, 0) as u32;
        assert!(matches!(
            scan_message(&with_header(5, first)),
            Err(MrError::PartitionOutOfRange {
                id: 5,
                num_reducers: 5
            })
        ));
        assert!(matches!(
            scan_message(&with_header(1, first)),
            Err(MrError::MalformedShuffle { node: 0, .. })
        ));
        assert!(matches!(
            scan_message(&with_header(0, msg.len() as u32)),
            Err(MrError::MalformedShuffle { node: 0, .. })
        ));
        // The segment ends one byte before its last pair does.
        assert!(matches!(
            scan_message(&with_header(0, first - 1)),
            Err(MrError::Codec(_))
        ));

        // A field-keyed job: its first segment ends inside the length of
        // its last pair's `Str` key.
        let (msg, pairs) = Shape::StrKeyField.message()?;
        let first = segment_len(&msg, 0);
        let mut cut_key = msg.clone();
        let mid_length = first - (6 + 2);
        cut_key[4..8].copy_from_slice(&(mid_length as u32).to_le_bytes());
        assert!(matches!(
            Shape::StrKeyField.scan(&cut_key, pairs),
            Err(MrError::Codec(_))
        ));

        // Every shape: every cut, at a segment boundary included, is
        // refused, and so is every damaged run header — a count past the
        // end of its segment, no pairs, an unknown entry tag, a header its
        // segment cuts short.
        for shape in SHAPES {
            let (msg, pairs) = shape.message()?;
            for cut in 0..msg.len() {
                assert!(
                    shape.scan(&msg[..cut], pairs).is_err(),
                    "{shape:?} cut at {cut}"
                );
            }
            let runs = shape.first_segment_runs(&msg)?;
            let last =
                *(runs.last()).ok_or_else(|| MrError::msg("the first segment holds no run"))?;
            let malformed = |m: Vec<u8>, what: &str| {
                assert!(
                    matches!(
                        shape.scan(&m, pairs),
                        Err(MrError::MalformedShuffle { node: 0, .. })
                    ),
                    "{shape:?}: {what}"
                );
            };
            let with_count = |count: u32| {
                let mut m = msg.clone();
                m[last + 8..last + 12].copy_from_slice(&count.to_le_bytes());
                m
            };
            malformed(
                with_count(run_count(&msg, last) + 1),
                "a count past its segment",
            );
            malformed(with_count(u32::MAX), "a count of u32::MAX");
            malformed(with_count(0), "a run of no pairs");
            for tag in [3, 7, u8::MAX] {
                let mut m = msg.clone();
                m[runs[0] + 12] = tag;
                malformed(m, "an unknown entry tag");
            }
            for into in 1..RUN_HEADER {
                let mut m = msg.clone();
                let len = (last - SEGMENT_HEADER + into) as u32;
                m[4..8].copy_from_slice(&len.to_le_bytes());
                malformed(m, "a run header cut short");
            }
        }
        Ok(())
    }

    proptest! {
        /// Arbitrary bytes, and a valid message with one byte flipped,
        /// scan to a result, never a panic: with tagged keys, with a `Str`
        /// key field read from the entry, and keyless, over flat and over
        /// mixed flat and packed entries.
        #[test]
        fn arbitrary_inbox_bytes_never_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            pairs in 0usize..8,
            at in any::<usize>(),
            flip in 1u8..255,
        ) {
            for shape in SHAPES {
                let _ = shape.scan(&bytes, pairs);
                let message = shape.message();
                prop_assert!(message.is_ok());
                if let Ok((mut msg, pairs)) = message {
                    let at = at % msg.len();
                    msg[at] ^= flip;
                    let _ = shape.scan(&msg, pairs);
                }
            }
        }
    }

    /// A map attempt retried after a crash resends exactly the runs a
    /// first attempt sends: every node's outbox row is byte-identical with
    /// and without the crash, for a keyless job with two fragments per
    /// node and for a field-keyed one.
    #[test]
    fn a_retried_map_attempt_resends_identical_runs() -> Result<()> {
        struct Spread;
        impl Mapper for Spread {
            fn map(&self, _: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> Result<()> {
                for mi in inputs {
                    out.set_base(1000 * u64::from(mi.ordinal));
                    for (i, entry) in EntryRef::all(&mi.data.batch).enumerate() {
                        out.push_to((i * 7 + mi.ordinal as usize) % REDUCERS, entry)?;
                    }
                }
                Ok(())
            }

            fn key(&self) -> PairKey {
                PairKey::None
            }
        }
        let mut cluster = Cluster::new(NODES).with_replication(1);
        let fragments = (0..2 * NODES as i32)
            .map(|f| {
                let records = (0..20 + f).map(|k| Record::new(vec![Value::Int(k * 37 % 29 + f)]));
                Arc::new(Dataset::new(int_schema(), Batch::Flat(records.collect())))
            })
            .collect();
        cluster.place("in", fragments)?;
        let keyed = KeyedMapper { key_field: 0 };
        let mappers: [&dyn Mapper; 2] = [&Spread, &keyed];
        for mapper in mappers {
            let mut job = test_job(mapper, &HashPartitioner, int_schema());
            job.inputs = vec!["in".into()];
            let rows = |crashes: u32| -> Result<Vec<Vec<Vec<u8>>>> {
                let pc = PhaseCtx {
                    name: &job.name,
                    job_idx: 0,
                    phase: TaskPhase::Map,
                    n: NODES,
                    slots: 1,
                    retry: cluster.retry_policy(),
                    crashes: vec![crashes; NODES],
                    stragglers: vec![1.0; NODES],
                    threads: 1,
                    tracing: false,
                    cost: cluster.cost_model(),
                    net: *cluster.net(),
                };
                (0..NODES)
                    .map(|node| {
                        let outcome = cluster.map_task(&pc, &job, node)?;
                        assert_eq!(outcome.att.recovery.tasks_retried, crashes, "node {node}");
                        Ok(outcome.out.row)
                    })
                    .collect()
            };
            let clean = rows(0)?;
            assert!(clean.iter().flatten().any(|m| !m.is_empty()));
            assert_eq!(rows(1)?, clean, "{:?}", mapper.key());
        }
        Ok(())
    }

    /// A straggler on node 1 scales that node's map-only task time by its
    /// slowdown and leaves the other nodes' measured time as it is.
    #[test]
    fn a_straggler_scales_its_nodes_local_task_time() -> Result<()> {
        let plan = crate::FaultPlan::new(vec![Fault::Straggler {
            node: 1,
            slowdown: 3.0,
        }]);
        let mut cluster = Cluster::new(NODES)
            .with_fault_plan(plan)
            .with_tracer(Box::new(papar_trace::Collector::new()));
        let fragments = (0..NODES as i32)
            .map(|f| {
                let records = (0..2000).map(|k| Record::new(vec![Value::Int(k ^ f)]));
                Arc::new(Dataset::new(int_schema(), Batch::Flat(records.collect())))
            })
            .collect();
        cluster.place("in", fragments)?;
        let outputs = [("out".to_string(), int_schema())];
        let copy = |_: &TaskCtx, inputs: &[MapInput]| {
            let copies = inputs
                .iter()
                .map(|mi| (mi.ordinal, vec![mi.data.batch.clone()]));
            Ok(copies.collect())
        };
        let stats = cluster.run_local("copy", &["in".to_string()], &outputs, copy)?;
        assert_eq!(stats.records_out, NODES as u64 * 2000);
        let trace = (cluster.take_trace()).ok_or_else(|| MrError::msg("no trace collected"))?;
        let tasks = &trace.jobs[0].phases[0].tasks;
        assert_eq!(tasks.len(), NODES);
        assert!(tasks[1].cpu > Duration::ZERO);
        for t in tasks {
            let slowdown = if t.node == 1 { 3.0 } else { 1.0 };
            assert_eq!(t.virt, t.cpu.mul_f64(slowdown), "node {}", t.node);
            assert_eq!(stats.map_time_by_node[t.node], t.virt, "node {}", t.node);
        }
        Ok(())
    }

    /// A task that panics at one index makes the whole call panic, whether
    /// the tasks run inline or on scoped workers.
    #[test]
    fn a_panicking_task_panics_the_call() {
        for threads in [1, 4] {
            assert_eq!(run_slots(8, threads, |i| i), (0..8).collect::<Vec<_>>());
            let call = std::panic::catch_unwind(|| {
                run_slots(8, threads, |i| {
                    if i == 5 {
                        std::panic::panic_any("task 5 failed");
                    }
                    i
                })
            });
            assert!(call.is_err(), "threads={threads}");
        }
    }
}
